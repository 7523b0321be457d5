#include "nn/layer.h"

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace vwsdk {

void ConvLayerDesc::validate() const {
  VWSDK_REQUIRE(ifm_w > 0 && ifm_h > 0,
                cat("layer ", name, ": IFM extents must be positive"));
  VWSDK_REQUIRE(kernel_w > 0 && kernel_h > 0,
                cat("layer ", name, ": kernel extents must be positive"));
  VWSDK_REQUIRE(in_channels > 0 && out_channels > 0,
                cat("layer ", name, ": channel counts must be positive"));
  VWSDK_REQUIRE(config.stride_w > 0 && config.stride_h > 0,
                cat("layer ", name, ": strides must be positive"));
  VWSDK_REQUIRE(config.pad_w >= 0 && config.pad_h >= 0,
                cat("layer ", name, ": padding must be non-negative"));
  VWSDK_REQUIRE(ifm_w + 2 * config.pad_w >= kernel_w &&
                    ifm_h + 2 * config.pad_h >= kernel_h,
                cat("layer ", name, ": kernel larger than padded input"));
  VWSDK_REQUIRE(groups >= 1, cat("layer ", name, ": groups must be >= 1"));
  VWSDK_REQUIRE(in_channels % groups == 0 && out_channels % groups == 0,
                cat("layer ", name, ": groups (", groups,
                    ") must divide IC (", in_channels, ") and OC (",
                    out_channels, ")"));
}

Dim ConvLayerDesc::group_in_channels() const { return in_channels / groups; }

Dim ConvLayerDesc::group_out_channels() const {
  return out_channels / groups;
}

ConvLayerDesc ConvLayerDesc::one_group() const {
  validate();
  ConvLayerDesc group = *this;
  group.in_channels = group_in_channels();
  group.out_channels = group_out_channels();
  group.groups = 1;
  return group;
}

Dim ConvLayerDesc::ofm_w() const {
  return conv_output_extent(ifm_w, kernel_w, config.stride_w, config.pad_w);
}

Dim ConvLayerDesc::ofm_h() const {
  return conv_output_extent(ifm_h, kernel_h, config.stride_h, config.pad_h);
}

Count ConvLayerDesc::num_windows() const {
  return checked_mul(ofm_w(), ofm_h());
}

Count ConvLayerDesc::weight_count() const {
  return checked_mul(checked_mul(kernel_w, kernel_h),
                     checked_mul(group_in_channels(), out_channels));
}

std::string ConvLayerDesc::to_string() const {
  std::string text = cat(name, ": ", ifm_w, "x", ifm_h, ", ", kernel_w, "x",
                         kernel_h, "x", in_channels, "x", out_channels);
  if (is_grouped()) {
    text += cat(" g", groups);
  }
  return text;
}

ConvLayerDesc make_conv_layer(std::string name, Dim image, Dim kernel,
                              Dim in_channels, Dim out_channels) {
  ConvLayerDesc layer;
  layer.name = std::move(name);
  layer.ifm_w = image;
  layer.ifm_h = image;
  layer.kernel_w = kernel;
  layer.kernel_h = kernel;
  layer.in_channels = in_channels;
  layer.out_channels = out_channels;
  layer.validate();
  return layer;
}

}  // namespace vwsdk
