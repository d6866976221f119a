#include "nn/layer.hh"

#include <cstdio>

#include "common/logging.hh"

namespace inca {
namespace nn {

const char *
layerKindName(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Conv: return "conv";
      case LayerKind::Depthwise: return "dwconv";
      case LayerKind::Pointwise: return "pwconv";
      case LayerKind::FullyConnected: return "fc";
      case LayerKind::MaxPool: return "maxpool";
      case LayerKind::AvgPool: return "avgpool";
      case LayerKind::ReLU: return "relu";
      case LayerKind::Add: return "add";
    }
    panic("unknown layer kind %d", int(kind));
}

bool
LayerDesc::isConvLike() const
{
    switch (kind) {
      case LayerKind::Conv:
      case LayerKind::Depthwise:
      case LayerKind::Pointwise:
      case LayerKind::FullyConnected:
        return true;
      default:
        return false;
    }
}

std::int64_t
LayerDesc::weightCount() const
{
    switch (kind) {
      case LayerKind::Conv:
      case LayerKind::Pointwise:
      case LayerKind::FullyConnected:
        return std::int64_t(kh) * kw * inC * outC;
      case LayerKind::Depthwise:
        return std::int64_t(kh) * kw * inC;
      default:
        return 0;
    }
}

std::int64_t
LayerDesc::macs() const
{
    if (!isConvLike())
        return 0;
    return accumDepth() * outputCount();
}

std::int64_t
LayerDesc::accumDepth() const
{
    switch (kind) {
      case LayerKind::Conv:
      case LayerKind::Pointwise:
      case LayerKind::FullyConnected:
        return std::int64_t(kh) * kw * inC;
      case LayerKind::Depthwise:
        return std::int64_t(kh) * kw;
      default:
        return 0;
    }
}

std::string
LayerDesc::str() const
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%-18s %-8s in %4lldx%3lldx%3lld out %4lldx%3lldx%3lld "
                  "k%dx%d s%d p%d",
                  name.c_str(), layerKindName(kind), (long long)inC,
                  (long long)inH, (long long)inW, (long long)outC,
                  (long long)outH, (long long)outW, kh, kw, stride, pad);
    return buf;
}

} // namespace nn
} // namespace inca
