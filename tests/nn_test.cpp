// Tests for the NN library: layer shapes & semantics, gradient flow,
// optimiser convergence on analytic problems, loss properties, KAL
// behaviour, checkpoint round-trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "nn/attention.h"
#include "nn/kal.h"
#include "nn/layers.h"
#include "nn/losses.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "nn/transformer.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/rng.h"

namespace fmnet::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(Linear, ShapeAndAffine) {
  fmnet::Rng rng(1);
  Linear lin(3, 2, rng);
  const Tensor x = Tensor::ones({4, 3});
  const Tensor y = lin.forward(x);
  EXPECT_EQ(y.shape(), (Shape{4, 2}));
  // All rows identical for identical inputs.
  EXPECT_NEAR(y.at({0, 0}), y.at({3, 0}), 1e-6);
}

TEST(Linear, Batched3DInput) {
  fmnet::Rng rng(2);
  Linear lin(3, 5, rng);
  const Tensor x = Tensor::ones({2, 4, 3});
  EXPECT_EQ(lin.forward(x).shape(), (Shape{2, 4, 5}));
}

TEST(Linear, ParametersExposed) {
  fmnet::Rng rng(3);
  Linear lin(3, 2, rng);
  EXPECT_EQ(lin.parameters().size(), 2u);
  EXPECT_EQ(lin.num_parameters(), 3u * 2u + 2u);
}

TEST(LayerNorm, NormalisesLastDim) {
  LayerNorm ln(4);
  const Tensor x = Tensor::from_vector({1, 2, 3, 4, 10, 20, 30, 40}, {2, 4});
  const Tensor y = ln.forward(x);
  for (int r = 0; r < 2; ++r) {
    float m = 0.0f;
    for (int c = 0; c < 4; ++c) m += y.at({r, c});
    EXPECT_NEAR(m / 4.0f, 0.0f, 1e-5);
    float v = 0.0f;
    for (int c = 0; c < 4; ++c) v += y.at({r, c}) * y.at({r, c});
    EXPECT_NEAR(v / 4.0f, 1.0f, 1e-3);
  }
}

TEST(LayerNorm, GradientFlowsToGammaBeta) {
  LayerNorm ln(3);
  const Tensor x = Tensor::from_vector({1, 5, 9}, {1, 3});
  Tensor loss = tensor::sum(ln.forward(x));
  loss.backward();
  const auto params = ln.parameters();
  EXPECT_EQ(params[0].grad().size(), 3u);
  // d(loss)/d(beta) is exactly 1 for a sum loss.
  for (const float g : params[1].grad()) EXPECT_NEAR(g, 1.0f, 1e-6);
}

TEST(Dropout, EvalModeIsIdentity) {
  fmnet::Rng rng(4);
  Dropout d(0.5f);
  d.set_training(false);
  const Tensor x = Tensor::ones({100});
  EXPECT_EQ(d.forward(x, rng).data(), x.data());
}

TEST(Dropout, TrainModeZeroesAndRescales) {
  fmnet::Rng rng(5);
  Dropout d(0.5f);
  const Tensor x = Tensor::ones({10000});
  const Tensor y = d.forward(x, rng);
  int zeros = 0;
  double s = 0.0;
  for (const float v : y.data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 2.0f, 1e-6);
    }
    s += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.05);
  EXPECT_NEAR(s / 10000.0, 1.0, 0.1);
}

TEST(PositionalEncoding, DistinctPositionsAndBounded) {
  PositionalEncoding pe(64, 8);
  const Tensor x = Tensor::zeros({1, 64, 8});
  const Tensor y = pe.forward(x);
  // Encodings are bounded by 1 in magnitude and differ across positions.
  bool differ = false;
  for (int d = 0; d < 8; ++d) {
    EXPECT_LE(std::fabs(y.at({0, 5, d})), 1.0f + 1e-6f);
    differ = differ || std::fabs(y.at({0, 1, d}) - y.at({0, 2, d})) > 1e-3f;
  }
  EXPECT_TRUE(differ);
}

TEST(Attention, ShapePreservingAndPermutationSensitive) {
  fmnet::Rng rng(6);
  MultiHeadSelfAttention attn(8, 2, rng);
  fmnet::Rng data_rng(7);
  const Tensor x = Tensor::randn({2, 5, 8}, data_rng);
  const Tensor y = attn.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 8}));
}

TEST(Attention, UniformInputGivesUniformOutput) {
  fmnet::Rng rng(8);
  MultiHeadSelfAttention attn(4, 2, rng);
  const Tensor x = Tensor::ones({1, 6, 4});
  const Tensor y = attn.forward(x);
  // With identical tokens, attention output must be identical per position.
  for (int t = 1; t < 6; ++t) {
    for (int d = 0; d < 4; ++d) {
      EXPECT_NEAR(y.at({0, t, d}), y.at({0, 0, d}), 1e-5);
    }
  }
}

TEST(Attention, GradientReachesAllProjections) {
  fmnet::Rng rng(9);
  MultiHeadSelfAttention attn(4, 2, rng);
  fmnet::Rng data_rng(10);
  const Tensor x = Tensor::randn({1, 3, 4}, data_rng);
  Tensor loss = tensor::sum(tensor::square(attn.forward(x)));
  loss.backward();
  for (const Tensor& p : attn.parameters()) {
    double g2 = 0.0;
    for (const float g : p.grad()) g2 += static_cast<double>(g) * g;
    EXPECT_GT(g2, 0.0);
  }
}

TEST(Attention, RejectsIndivisibleHeads) {
  fmnet::Rng rng(11);
  EXPECT_THROW(MultiHeadSelfAttention(6, 4, rng), CheckError);
}

TEST(Transformer, ForwardShape) {
  fmnet::Rng rng(12);
  TransformerConfig cfg;
  cfg.input_channels = 4;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  cfg.d_ff = 16;
  ImputationTransformer model(cfg, rng);
  fmnet::Rng data_rng(13);
  const Tensor x = Tensor::randn({3, 20, 4}, data_rng);
  fmnet::Rng fwd_rng(14);
  EXPECT_EQ(model.forward(x, fwd_rng).shape(), (Shape{3, 20}));
}

TEST(Transformer, ParameterCountMatchesArchitecture) {
  fmnet::Rng rng(15);
  TransformerConfig cfg;
  cfg.input_channels = 4;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.d_ff = 16;
  ImputationTransformer model(cfg, rng);
  // input proj (4*8+8) + layer [2 LN (16+16) + 4 attn lin (8*8+8 each)
  // + ff1 (8*16+16) + ff2 (16*8+8)] + final LN 16 + head (8+1)
  const std::size_t expected = (4 * 8 + 8) +
                               (16 + 16 + 4 * (8 * 8 + 8) + (8 * 16 + 16) +
                                (16 * 8 + 8)) +
                               16 + (8 + 1);
  EXPECT_EQ(model.num_parameters(), expected);
}

TEST(Transformer, CanOverfitTinyImputationTask) {
  // A 1-layer model must be able to memorise a fixed input->output mapping;
  // this is the end-to-end "does training work at all" canary.
  fmnet::Rng rng(16);
  TransformerConfig cfg;
  cfg.input_channels = 2;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.d_ff = 16;
  ImputationTransformer model(cfg, rng);

  fmnet::Rng data_rng(17);
  const Tensor x = Tensor::randn({2, 6, 2}, data_rng);
  const Tensor target = Tensor::from_vector(
      {0, 1, 2, 3, 2, 1, 1, 2, 3, 2, 1, 0}, {2, 6});

  Adam opt(model.parameters(), 0.02f);
  fmnet::Rng fwd_rng(18);
  float first_loss = 0.0f;
  float last_loss = 0.0f;
  for (int epoch = 0; epoch < 300; ++epoch) {
    model.zero_grad();
    Tensor loss = mse_loss(model.forward(x, fwd_rng), target);
    if (epoch == 0) first_loss = loss.item();
    last_loss = loss.item();
    loss.backward();
    opt.step();
  }
  EXPECT_LT(last_loss, first_loss * 0.05f);
}

TEST(Optim, SgdConvergesOnQuadratic) {
  Tensor w = Tensor::from_vector({5.0f}, {1}, true);
  Sgd opt({w}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    w.zero_grad();
    Tensor loss = tensor::sum(tensor::square(w));
    loss.backward();
    opt.step();
  }
  EXPECT_NEAR(w.data()[0], 0.0f, 1e-4);
}

TEST(Optim, SgdMomentumFasterThanPlainOnIllConditioned) {
  auto run = [](float momentum) {
    Tensor w = Tensor::from_vector({5.0f, 5.0f}, {2}, true);
    const Tensor scale = Tensor::from_vector({1.0f, 0.05f}, {2});
    Sgd opt({w}, 0.05f, momentum);
    for (int i = 0; i < 100; ++i) {
      w.zero_grad();
      Tensor loss = tensor::sum(tensor::square(w) * scale);
      loss.backward();
      opt.step();
    }
    return std::fabs(w.data()[1]);
  };
  EXPECT_LT(run(0.9f), run(0.0f));
}

TEST(Optim, AdamConvergesOnQuadratic) {
  Tensor w = Tensor::from_vector({3.0f, -4.0f}, {2}, true);
  Adam opt({w}, 0.1f);
  for (int i = 0; i < 500; ++i) {
    w.zero_grad();
    Tensor loss = tensor::sum(tensor::square(w));
    loss.backward();
    opt.step();
  }
  EXPECT_NEAR(w.data()[0], 0.0f, 1e-3);
  EXPECT_NEAR(w.data()[1], 0.0f, 1e-3);
}

TEST(Optim, WeightDecayShrinksWeights) {
  Tensor w = Tensor::from_vector({1.0f}, {1}, true);
  Adam opt({w}, 0.01f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.5f);
  for (int i = 0; i < 100; ++i) {
    w.zero_grad();
    // Zero data-gradient loss: only decay acts.
    Tensor loss = tensor::sum(w * Tensor::zeros({1}));
    loss.backward();
    opt.step();
  }
  EXPECT_LT(std::fabs(w.data()[0]), 1.0f);
}

TEST(Optim, ClipGradNorm) {
  Tensor w = Tensor::from_vector({3.0f, 4.0f}, {2}, true);
  Tensor loss = tensor::sum(w * Tensor::from_vector({3.0f, 4.0f}, {2}));
  loss.backward();
  Adam opt({w}, 0.1f);
  const float norm = opt.clip_grad_norm(1.0f);
  EXPECT_NEAR(norm, 5.0f, 1e-5);
  const auto& g = w.grad();
  EXPECT_NEAR(std::sqrt(g[0] * g[0] + g[1] * g[1]), 1.0f, 1e-5);
}

TEST(Losses, MseMaeBasics) {
  const Tensor p = Tensor::from_vector({1, 2}, {2});
  const Tensor t = Tensor::from_vector({3, 2}, {2});
  EXPECT_NEAR(mse_loss(p, t).item(), 2.0f, 1e-6);
  EXPECT_NEAR(mae_loss(p, t).item(), 1.0f, 1e-6);
}

TEST(Losses, EmdZeroForIdenticalSeries) {
  const Tensor p = Tensor::from_vector({0, 3, 1, 0}, {1, 4});
  EXPECT_NEAR(emd_loss(p, p).item(), 0.0f, 1e-7);
}

TEST(Losses, EmdGrowsWithBurstDisplacement) {
  // Same total mass, burst moved farther => larger EMD. MSE can't tell the
  // two displacements apart; this is why the paper trains with EMD.
  const Tensor truth = Tensor::from_vector({0, 5, 0, 0, 0, 0}, {1, 6});
  const Tensor near_burst = Tensor::from_vector({0, 0, 5, 0, 0, 0}, {1, 6});
  const Tensor far_burst = Tensor::from_vector({0, 0, 0, 0, 0, 5}, {1, 6});
  const float e_near = emd_loss(near_burst, truth).item();
  const float e_far = emd_loss(far_burst, truth).item();
  EXPECT_GT(e_far, e_near * 2.0f);
  EXPECT_NEAR(mse_loss(near_burst, truth).item(),
              mse_loss(far_burst, truth).item(), 1e-6);
}

TEST(Losses, EmdBatchAveraged) {
  const Tensor a = Tensor::from_vector({1, 0, 1, 0}, {2, 2});
  const Tensor b = Tensor::from_vector({0, 1, 0, 1}, {2, 2});
  // Per row: |1| + |0| = 1 summed/T=2 -> 0.5; identical rows -> mean 0.5.
  EXPECT_NEAR(emd_loss(a, b).item(), 0.5f, 1e-6);
}

ExampleConstraints tiny_constraints() {
  ExampleConstraints c;
  c.coarse_factor = 4;
  c.window_max = {3.0f, 0.0f};
  c.port_sent = {4.0f, 0.0f};
  c.sample_idx = {0, 4};
  c.sample_val = {1.0f, 0.0f};
  c.ne_tanh_scale = 50.0f;
  return c;
}

TEST(Kal, ZeroPenaltyWhenConstraintsHold) {
  // pred meets: window0 max==3, window1 all zero, samples match, NE within
  // sent budget.
  const Tensor pred = Tensor::from_vector({1, 3, 2, 1, 0, 0, 0, 0}, {8}, true);
  const auto terms = kal_penalty(pred, tiny_constraints(), 0.0f, 0.0f, 1.0f);
  EXPECT_NEAR(terms.phi, 0.0f, 1e-5);
  EXPECT_NEAR(terms.psi, 0.0f, 1e-5);
  EXPECT_NEAR(terms.penalty.item(), 0.0f, 1e-4);
}

TEST(Kal, PhiDetectsMaxAndSampleViolations) {
  // Sample at t=0 is 0 (should be 1); the window max of 2 stays under the
  // LANZ budget of 3, which C1 — an upper bound — does not penalise.
  const Tensor under =
      Tensor::from_vector({0, 2, 2, 1, 0, 0, 0, 0}, {8}, true);
  const auto t_under =
      kal_penalty(under, tiny_constraints(), 0.0f, 0.0f, 1.0f);
  EXPECT_NEAR(t_under.phi, 1.0f, 1e-5);  // |0-1| only
  // Exceeding the budget (max 5 vs 3) is what C1 penalises.
  const Tensor over =
      Tensor::from_vector({1, 5, 2, 1, 0, 0, 0, 0}, {8}, true);
  const auto t_over = kal_penalty(over, tiny_constraints(), 0.0f, 0.0f, 1.0f);
  EXPECT_NEAR(t_over.phi, 2.0f, 1e-5);  // relu(5-3)
}

TEST(Kal, PsiDetectsWorkConservationViolation) {
  // Window 1 reported zero packets sent, but the prediction is non-empty
  // for all 4 steps there.
  const Tensor pred = Tensor::from_vector({1, 3, 2, 1, 1, 1, 1, 1}, {8}, true);
  const auto terms = kal_penalty(pred, tiny_constraints(), 0.0f, 0.0f, 1.0f);
  EXPECT_GT(terms.psi, 3.0f);  // ~4 soft-nonempty steps over a 0 budget
  EXPECT_GT(terms.penalty.item(), 0.0f);
}

TEST(Kal, PenaltyGradPushesTowardSatisfaction) {
  Tensor pred = Tensor::from_vector({1, 3, 2, 1, 1, 1, 1, 1}, {8}, true);
  // Moderate tanh sharpness so the soft non-emptiness indicator is not
  // saturated at these magnitudes and gradients can flow.
  ExampleConstraints c = tiny_constraints();
  c.ne_tanh_scale = 2.0f;
  auto terms = kal_penalty(pred, c, 0.0f, 1.0f, 1.0f);
  terms.penalty.backward();
  // Gradient on the spurious non-empty steps (window 1) must be positive —
  // i.e. gradient descent reduces them toward empty.
  for (std::size_t t = 4; t < 8; ++t) EXPECT_GT(pred.grad()[t], 0.0f);
}

TEST(Kal, StateUpdateRules) {
  KalState st(2, 0.5f);
  st.update(0, 2.0f, -1.0f);
  EXPECT_NEAR(st.lambda_eq(0), 1.0f, 1e-6);
  EXPECT_NEAR(st.lambda_ineq(0), 0.0f, 1e-6);  // clamped at zero
  st.update(0, 0.0f, 3.0f);
  EXPECT_NEAR(st.lambda_ineq(0), 1.5f, 1e-6);
  EXPECT_NEAR(st.mean_phi(), 0.0f, 1e-6);
  EXPECT_NEAR(st.mean_psi(), 1.5f, 1e-6);
}

TEST(Kal, EvaluateConstraintsHardSemantics) {
  ExampleConstraints c = tiny_constraints();
  const std::vector<double> ok{1, 3, 2, 1, 0, 0, 0, 0};
  EXPECT_TRUE(evaluate_constraints(ok, c).satisfied());
  const std::vector<double> bad{1, 4, 2, 1, 0.5, 0, 0, 0};
  const auto v = evaluate_constraints(bad, c);
  EXPECT_NEAR(v.max_violation, 1.0 + 0.5, 1e-9);  // window0 4!=3, window1 .5!=0
  EXPECT_NEAR(v.periodic_violation, 0.5, 1e-9);   // sample at t=4
  EXPECT_NEAR(v.sent_violation, 1.0, 1e-9);       // 1 nonempty step, 0 budget
  EXPECT_FALSE(v.satisfied());
}

TEST(Transformer, EvalForwardIsDeterministic) {
  fmnet::Rng rng(30);
  TransformerConfig cfg;
  cfg.input_channels = 3;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.d_ff = 16;
  cfg.dropout = 0.3f;  // must be inert at eval time
  ImputationTransformer model(cfg, rng);
  model.set_training(false);
  fmnet::Rng data_rng(31);
  const Tensor x = Tensor::randn({2, 7, 3}, data_rng);
  fmnet::Rng r1(1);
  fmnet::Rng r2(999);
  const Tensor y1 = model.forward(x, r1);
  const Tensor y2 = model.forward(x, r2);
  EXPECT_EQ(y1.data(), y2.data());
}

TEST(Transformer, BatchIndependence) {
  // Each batch element's output must depend only on its own features.
  fmnet::Rng rng(32);
  TransformerConfig cfg;
  cfg.input_channels = 2;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.d_ff = 16;
  ImputationTransformer model(cfg, rng);
  model.set_training(false);
  fmnet::Rng data_rng(33);
  const Tensor pair = Tensor::randn({2, 5, 2}, data_rng);
  fmnet::Rng fwd(0);
  const Tensor joint = model.forward(pair, fwd);
  // Forward the first row alone.
  std::vector<float> first(pair.data().begin(), pair.data().begin() + 10);
  const Tensor solo_in = Tensor::from_vector(std::move(first), {1, 5, 2});
  const Tensor solo = model.forward(solo_in, fwd);
  for (int t = 0; t < 5; ++t) {
    EXPECT_NEAR(joint.at({0, t}), solo.at({0, t}), 1e-5);
  }
}

/// A small transformer for the checkpoint tests, initialised from `seed`.
ImputationTransformer tiny_transformer(std::uint64_t seed) {
  fmnet::Rng rng(seed);
  TransformerConfig cfg;
  cfg.input_channels = 2;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.d_ff = 8;
  return ImputationTransformer(cfg, rng);
}

TEST(Serialize, RoundTripRestoresExactWeights) {
  ImputationTransformer a = tiny_transformer(20);
  ImputationTransformer b = tiny_transformer(21);

  const std::string path = ::testing::TempDir() + "/fmnet_ckpt_test.bin";
  save_parameters(a, path);
  load_parameters(b, path);
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].data(), pb[i].data());
  }
  std::remove(path.c_str());
}

TEST(Serialize, RejectsArchitectureMismatch) {
  fmnet::Rng rng(22);
  TransformerConfig small;
  small.input_channels = 2;
  small.d_model = 8;
  small.num_heads = 2;
  small.num_layers = 1;
  small.d_ff = 8;
  TransformerConfig big = small;
  big.d_model = 16;
  big.d_ff = 16;
  ImputationTransformer a(small, rng);
  ImputationTransformer b(big, rng);
  const std::string path = ::testing::TempDir() + "/fmnet_ckpt_bad.bin";
  save_parameters(a, path);
  EXPECT_THROW(load_parameters(b, path), CheckError);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsNonFiniteWeights) {
  ImputationTransformer a = tiny_transformer(23);
  ImputationTransformer b = tiny_transformer(24);
  a.parameters().back().data().back() = std::nanf("");
  EXPECT_FALSE(all_parameters_finite(a));
  EXPECT_TRUE(all_parameters_finite(b));

  const std::string path = ::testing::TempDir() + "/fmnet_ckpt_nan.bin";
  save_parameters(a, path);
  EXPECT_THROW(load_parameters(b, path), CheckError);
  EXPECT_TRUE(all_parameters_finite(b));
  std::remove(path.c_str());
}

TEST(Serialize, RejectedLoadLeavesWeightsUntouched) {
  // The last tensor is the bad one, so a load that copied tensor by tensor
  // would already have overwritten all the others when it threw.
  ImputationTransformer a = tiny_transformer(25);
  ImputationTransformer b = tiny_transformer(26);
  a.parameters().back().data().back() = std::numeric_limits<float>::infinity();
  std::vector<std::vector<float>> before;
  for (const Tensor& p : b.parameters()) before.push_back(p.data());

  const std::string path = ::testing::TempDir() + "/fmnet_ckpt_inf.bin";
  save_parameters(a, path);
  EXPECT_THROW(load_parameters(b, path), CheckError);
  const auto after = b.parameters();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].data(), before[i]) << "parameter " << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fmnet::nn
