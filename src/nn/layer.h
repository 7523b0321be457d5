#pragma once

/// @file layer.h
/// Descriptor of a convolutional layer as the mapping optimizer sees it.

#include <string>

#include "common/types.h"
#include "tensor/conv_ref.h"

namespace vwsdk {

/// A convolutional layer: input feature-map extent, kernel extent, channel
/// counts, and (extensions) stride/padding and channel groups.  This is a
/// pure *descriptor* -- weights live in tensors, placement lives in
/// mapping plans.
struct ConvLayerDesc {
  std::string name;   ///< human-readable label ("conv3_1", ...)
  Dim ifm_w = 0;      ///< input feature-map width  (I_w)
  Dim ifm_h = 0;      ///< input feature-map height (I_h)
  Dim kernel_w = 0;   ///< kernel width  (K_w)
  Dim kernel_h = 0;   ///< kernel height (K_h)
  Dim in_channels = 0;   ///< IC
  Dim out_channels = 0;  ///< OC
  ConvConfig config{};   ///< stride / padding (paper: stride 1, pad 0)
  /// Channel groups G (extension; see core/grouped_conv.h).  Must divide
  /// both IC and OC.  G = IC = OC is a depthwise convolution; the paper's
  /// layers are all dense (G = 1).
  Dim groups = 1;

  /// Validate all extents; throws InvalidArgument with the layer name in
  /// the message on failure.
  void validate() const;

  /// True if the layer is grouped (G > 1).
  bool is_grouped() const { return groups > 1; }

  /// Channels of one group's independent sub-convolution (IC/G, OC/G).
  Dim group_in_channels() const;
  Dim group_out_channels() const;

  /// One group's independent sub-convolution as a dense layer: IC/G ->
  /// OC/G channels, groups = 1, everything else unchanged (the layer
  /// itself when G = 1).  Validates this layer first.
  ConvLayerDesc one_group() const;

  /// Output extents under `config`.
  Dim ofm_w() const;
  Dim ofm_h() const;

  /// Number of kernel-sized windows in the IFM = number of OFM positions
  /// per output channel.
  Count num_windows() const;

  /// Total weight parameters: K_w * K_h * (IC/G) * OC.
  Count weight_count() const;

  /// Compact description, e.g. "conv1: 224x224, 3x3x3x64".
  std::string to_string() const;

  bool operator==(const ConvLayerDesc&) const = default;
};

/// Convenience factory for the square-image, square-kernel, stride-1,
/// pad-0 layers the paper evaluates.
ConvLayerDesc make_conv_layer(std::string name, Dim image, Dim kernel,
                              Dim in_channels, Dim out_channels);

}  // namespace vwsdk
