// Basic neural-network layers: Linear, LayerNorm, Dropout, positional
// encoding. All operate on the tensor autograd library.
#pragma once

#include "nn/module.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace fmnet::nn {

/// Affine map y = x W + b. Accepts input of shape [.., in_features] with 2
/// or 3 dimensions; the last dimension is transformed.
class Linear : public Module {
 public:
  /// Xavier-uniform-ish (scaled normal) initialisation from `rng`.
  Linear(std::int64_t in_features, std::int64_t out_features,
         fmnet::Rng& rng);

  Tensor forward(const Tensor& x) const;
  /// Affine map with the activation fused into the same graph node
  /// (single kernel, single backward) — y = act(x W + b).
  Tensor forward(const Tensor& x, tensor::Act act) const;
  std::vector<Tensor> parameters() const override;

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [out]
};

/// Layer normalisation over the last dimension with learnable gain/bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::int64_t features, float eps = 1e-5f);

  Tensor forward(const Tensor& x) const;
  std::vector<Tensor> parameters() const override;

 private:
  std::int64_t features_;
  float eps_;
  Tensor gamma_;  // [features]
  Tensor beta_;   // [features]
};

/// Inverted dropout: at training time zeroes activations with probability p
/// and rescales by 1/(1-p); identity at eval time.
class Dropout : public Module {
 public:
  explicit Dropout(float p);

  /// Needs an Rng because FMNet keeps all randomness explicit.
  Tensor forward(const Tensor& x, fmnet::Rng& rng) const;
  std::vector<Tensor> parameters() const override { return {}; }

 private:
  float p_;
};

/// Classic sinusoidal positional encoding added to a [B, T, D] input.
/// The table is a constant (non-learnable) tensor.
class PositionalEncoding {
 public:
  PositionalEncoding(std::int64_t max_len, std::int64_t d_model);

  /// x: [B, T, D] with T <= max_len; returns x + PE[:T].
  Tensor forward(const Tensor& x) const;

 private:
  std::int64_t max_len_;
  std::int64_t d_model_;
  Tensor table_;  // [max_len, d_model]
};

}  // namespace fmnet::nn
