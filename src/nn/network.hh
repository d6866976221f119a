/**
 * @file
 * Network-level shape descriptions and a shape-tracking builder.
 *
 * A NetworkDesc is an ordered list of LayerDescs plus roll-up queries
 * the analytic models need (total weights, total activations, per-layer
 * iteration). NetBuilder tracks the running feature-map shape so the
 * model zoo can describe architectures tersely.
 */

#ifndef INCA_NN_NETWORK_HH
#define INCA_NN_NETWORK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.hh"

namespace inca {
namespace nn {

/** An ordered network architecture description. */
struct NetworkDesc
{
    std::string name;
    int numClasses = 0;
    std::vector<LayerDesc> layers;

    /** Layers that hold weights (conv-like). */
    std::vector<LayerDesc> convLayers() const;

    /** Total weight parameters across all layers. */
    std::int64_t totalWeights() const;

    /** Total MACs per image. */
    std::int64_t totalMacs() const;

    /**
     * Total activation elements that must be resident for training
     * (sum of conv-like layer inputs, per image) -- the paper's
     * "inputs (activations)" capacity term in Table IV.
     */
    std::int64_t totalActivations() const;

    /** True when the network contains depthwise/pointwise layers. */
    bool isLightModel() const;

    /** Multi-line summary listing every layer. */
    std::string str() const;
};

/** Incremental builder that tracks the current feature-map shape. */
class NetBuilder
{
  public:
    /** Start a network from a C x H x W input. */
    NetBuilder(std::string name, std::int64_t c, std::int64_t h,
               std::int64_t w);

    /** Regular convolution; pad < 0 means "same" padding (k/2). */
    NetBuilder &conv(std::int64_t outC, int k, int stride = 1,
                     int pad = -1);

    /** Depthwise convolution over the current channels. */
    NetBuilder &dwconv(int k, int stride = 1, int pad = -1);

    /** Pointwise (1x1) convolution. */
    NetBuilder &pwconv(std::int64_t outC, int stride = 1);

    /** Fully connected layer (flattens the current map). */
    NetBuilder &fc(std::int64_t outF);

    /** Max pooling. */
    NetBuilder &maxpool(int k, int stride = 0, int pad = 0);

    /** Global average pooling (collapses H x W to 1 x 1). */
    NetBuilder &gavgpool();

    /** ReLU over the current map. */
    NetBuilder &relu();

    /** Residual addition with a map of the current shape. */
    NetBuilder &add();

    /**
     * A side-branch convolution (e.g. a residual downsample) with
     * explicit input shape; does not alter the running main-path shape.
     */
    NetBuilder &sideConv(std::int64_t inC, std::int64_t inH,
                         std::int64_t inW, std::int64_t outC, int k,
                         int stride, int pad = 0);

    /** Current feature-map channel count. */
    std::int64_t channels() const { return c_; }
    /** Current feature-map height. */
    std::int64_t height() const { return h_; }
    /** Current feature-map width. */
    std::int64_t width() const { return w_; }

    /** Finish; @p numClasses records the classifier width. */
    NetworkDesc build(int numClasses);

  private:
    LayerDesc &push(LayerKind kind, const char *stem);

    NetworkDesc net_;
    std::int64_t c_, h_, w_;
    int counter_ = 0;
};

} // namespace nn
} // namespace inca

#endif // INCA_NN_NETWORK_HH
