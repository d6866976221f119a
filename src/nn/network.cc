#include "nn/network.hh"

#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace inca {
namespace nn {

std::vector<LayerDesc>
NetworkDesc::convLayers() const
{
    std::vector<LayerDesc> out;
    for (const auto &l : layers) {
        if (l.isConvLike())
            out.push_back(l);
    }
    return out;
}

std::int64_t
NetworkDesc::totalWeights() const
{
    std::int64_t total = 0;
    for (const auto &l : layers)
        total += l.weightCount();
    return total;
}

std::int64_t
NetworkDesc::totalMacs() const
{
    std::int64_t total = 0;
    for (const auto &l : layers)
        total += l.macs();
    return total;
}

std::int64_t
NetworkDesc::totalActivations() const
{
    std::int64_t total = 0;
    for (const auto &l : layers) {
        if (l.isConvLike())
            total += l.inputCount();
    }
    return total;
}

bool
NetworkDesc::isLightModel() const
{
    for (const auto &l : layers) {
        if (l.isLight())
            return true;
    }
    return false;
}

std::string
NetworkDesc::str() const
{
    std::ostringstream os;
    os << name << " (" << layers.size() << " layers, "
       << totalWeights() << " weights, " << totalMacs() << " MACs)\n";
    for (const auto &l : layers)
        os << "  " << l.str() << "\n";
    return os.str();
}

NetBuilder::NetBuilder(std::string name, std::int64_t c, std::int64_t h,
                       std::int64_t w)
    : c_(c), h_(h), w_(w)
{
    net_.name = std::move(name);
}

LayerDesc &
NetBuilder::push(LayerKind kind, const char *stem)
{
    LayerDesc l;
    l.kind = kind;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%d", stem, ++counter_);
    l.name = buf;
    l.inC = c_;
    l.inH = h_;
    l.inW = w_;
    net_.layers.push_back(l);
    return net_.layers.back();
}

namespace {

std::int64_t
outDim(std::int64_t in, int k, int stride, int pad)
{
    inca_assert(in + 2 * pad >= k,
                "window %d larger than padded input %lld", k,
                (long long)(in + 2 * pad));
    return (in + 2 * pad - k) / stride + 1;
}

} // namespace

NetBuilder &
NetBuilder::conv(std::int64_t outC, int k, int stride, int pad)
{
    if (pad < 0)
        pad = k / 2;
    LayerDesc &l = push(k == 1 ? LayerKind::Pointwise : LayerKind::Conv,
                        k == 1 ? "pwconv" : "conv");
    l.kh = l.kw = k;
    l.stride = stride;
    l.pad = pad;
    l.outC = outC;
    l.outH = outDim(h_, k, stride, pad);
    l.outW = outDim(w_, k, stride, pad);
    c_ = l.outC;
    h_ = l.outH;
    w_ = l.outW;
    return *this;
}

NetBuilder &
NetBuilder::dwconv(int k, int stride, int pad)
{
    if (pad < 0)
        pad = k / 2;
    LayerDesc &l = push(LayerKind::Depthwise, "dwconv");
    l.kh = l.kw = k;
    l.stride = stride;
    l.pad = pad;
    l.outC = c_;
    l.outH = outDim(h_, k, stride, pad);
    l.outW = outDim(w_, k, stride, pad);
    h_ = l.outH;
    w_ = l.outW;
    return *this;
}

NetBuilder &
NetBuilder::pwconv(std::int64_t outC, int stride)
{
    return conv(outC, 1, stride, 0);
}

NetBuilder &
NetBuilder::fc(std::int64_t outF)
{
    LayerDesc &l = push(LayerKind::FullyConnected, "fc");
    // An FC layer is a 1x1 conv over a 1x1 map whose channel count is
    // the flattened input size.
    l.inC = c_ * h_ * w_;
    l.inH = l.inW = 1;
    l.kh = l.kw = 1;
    l.outC = outF;
    l.outH = l.outW = 1;
    c_ = outF;
    h_ = w_ = 1;
    return *this;
}

NetBuilder &
NetBuilder::maxpool(int k, int stride, int pad)
{
    if (stride == 0)
        stride = k;
    LayerDesc &l = push(LayerKind::MaxPool, "maxpool");
    l.kh = l.kw = k;
    l.stride = stride;
    l.pad = pad;
    l.outC = c_;
    l.outH = outDim(h_, k, stride, pad);
    l.outW = outDim(w_, k, stride, pad);
    h_ = l.outH;
    w_ = l.outW;
    return *this;
}

NetBuilder &
NetBuilder::gavgpool()
{
    LayerDesc &l = push(LayerKind::AvgPool, "avgpool");
    l.kh = int(h_);
    l.kw = int(w_);
    l.stride = 1;
    l.outC = c_;
    l.outH = l.outW = 1;
    h_ = w_ = 1;
    return *this;
}

NetBuilder &
NetBuilder::relu()
{
    LayerDesc &l = push(LayerKind::ReLU, "relu");
    l.outC = c_;
    l.outH = h_;
    l.outW = w_;
    return *this;
}

NetBuilder &
NetBuilder::add()
{
    LayerDesc &l = push(LayerKind::Add, "add");
    l.outC = c_;
    l.outH = h_;
    l.outW = w_;
    return *this;
}

NetBuilder &
NetBuilder::sideConv(std::int64_t inC, std::int64_t inH, std::int64_t inW,
                     std::int64_t outC, int k, int stride, int pad)
{
    LayerDesc &l = push(k == 1 ? LayerKind::Pointwise : LayerKind::Conv,
                        "sideconv");
    l.inC = inC;
    l.inH = inH;
    l.inW = inW;
    l.kh = l.kw = k;
    l.stride = stride;
    l.pad = pad;
    l.outC = outC;
    l.outH = outDim(inH, k, stride, pad);
    l.outW = outDim(inW, k, stride, pad);
    return *this;
}

NetworkDesc
NetBuilder::build(int numClasses)
{
    net_.numClasses = numClasses;
    return std::move(net_);
}

} // namespace nn
} // namespace inca
