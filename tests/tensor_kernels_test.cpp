// Kernel-layer correctness: the blocked/register-tiled GEMM family against
// the naive references over an exhaustive shape sweep, lane-count
// bit-identity of the parallel path, fused ops (linear_act, layer_norm,
// softmax, scaled_matmul_bt) against their primitive compositions and
// central-difference gradients, and buffer-pool recycling behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "tensor/activations.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fmnet::tensor {
namespace {

std::vector<float> random_buffer(std::size_t n, fmnet::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

// Central-difference gradient checker (same contract as
// tensor_grad_test.cpp).
void check_gradients(std::vector<Tensor> inputs,
                     const std::function<Tensor(const std::vector<Tensor>&)>&
                         fn,
                     float eps = 1e-3f, float tol = 2e-2f) {
  Tensor loss = fn(inputs);
  ASSERT_EQ(loss.numel(), 1);
  loss.backward();

  for (std::size_t t = 0; t < inputs.size(); ++t) {
    const auto analytic = inputs[t].grad();
    for (std::size_t i = 0; i < inputs[t].data().size(); ++i) {
      const float saved = inputs[t].data()[i];
      inputs[t].data()[i] = saved + eps;
      const float up = fn(inputs).item();
      inputs[t].data()[i] = saved - eps;
      const float down = fn(inputs).item();
      inputs[t].data()[i] = saved;
      const float numeric = (up - down) / (2.0f * eps);
      EXPECT_NEAR(analytic[i], numeric, tol)
          << "input " << t << " element " << i;
    }
  }
}

Tensor rand_input(const Shape& shape, fmnet::Rng& rng) {
  return Tensor::randn(shape, rng, 1.0f, /*requires_grad=*/true);
}

// The blocked kernels reassociate the k-sum at panel boundaries, so they
// are compared to the naive references with a tolerance scaled to the
// reduction depth.
float gemm_tol(std::int64_t k) {
  return 1e-5f * std::sqrt(static_cast<float>(k)) * 10.0f;
}

// ---- exhaustive GEMM vs reference sweep -----------------------------------

// Sizes hit every panel-kernel row tail (1..4) and k-unroll tail, plus odd
// widths; the dedicated PanelBoundaries test covers k > kKC.
const std::int64_t kSweep[] = {1, 2, 3, 17, 33, 63};

TEST(GemmKernels, MatchesReferenceExhaustive) {
  fmnet::Rng rng(101);
  for (const std::int64_t m : kSweep) {
    for (const std::int64_t k : kSweep) {
      for (const std::int64_t n : kSweep) {
        const auto a = random_buffer(static_cast<std::size_t>(m * k), rng);
        const auto b = random_buffer(static_cast<std::size_t>(k * n), rng);
        std::vector<float> fast(static_cast<std::size_t>(m * n), 0.5f);
        std::vector<float> ref = fast;  // same non-zero init: += contract
        kernels::gemm(a.data(), b.data(), fast.data(), m, k, n);
        kernels::reference_gemm(a.data(), b.data(), ref.data(), m, k, n);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_NEAR(fast[i], ref[i], gemm_tol(k))
              << "gemm " << m << "x" << k << "x" << n << " elem " << i;
        }
      }
    }
  }
}

TEST(GemmKernels, TransposedAMatchesReferenceExhaustive) {
  fmnet::Rng rng(102);
  for (const std::int64_t m : kSweep) {
    for (const std::int64_t k : kSweep) {
      for (const std::int64_t n : kSweep) {
        const auto at = random_buffer(static_cast<std::size_t>(k * m), rng);
        const auto b = random_buffer(static_cast<std::size_t>(k * n), rng);
        std::vector<float> fast(static_cast<std::size_t>(m * n), 0.0f);
        std::vector<float> ref = fast;
        kernels::gemm_at(at.data(), b.data(), fast.data(), m, k, n);
        kernels::reference_gemm_at(at.data(), b.data(), ref.data(), m, k, n);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_NEAR(fast[i], ref[i], gemm_tol(k))
              << "gemm_at " << m << "x" << k << "x" << n << " elem " << i;
        }
      }
    }
  }
}

TEST(GemmKernels, TransposedBMatchesReferenceExhaustive) {
  fmnet::Rng rng(103);
  for (const std::int64_t m : kSweep) {
    for (const std::int64_t k : kSweep) {
      for (const std::int64_t n : kSweep) {
        const auto a = random_buffer(static_cast<std::size_t>(m * k), rng);
        const auto bt = random_buffer(static_cast<std::size_t>(n * k), rng);
        std::vector<float> fast(static_cast<std::size_t>(m * n), 0.0f);
        std::vector<float> ref = fast;
        kernels::gemm_bt(a.data(), bt.data(), fast.data(), m, k, n);
        kernels::reference_gemm_bt(a.data(), bt.data(), ref.data(), m, k, n);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_NEAR(fast[i], ref[i], gemm_tol(k))
              << "gemm_bt " << m << "x" << k << "x" << n << " elem " << i;
        }
      }
    }
  }
}

TEST(GemmKernels, OverwriteModeEqualsAccumulateIntoZeros) {
  // accumulate=false must produce the same values as accumulate=true on a
  // zeroed C — same k-sum grouping — starting from garbage-filled C.
  fmnet::Rng rng(107);
  for (const std::int64_t m : kSweep) {
    for (const std::int64_t k : kSweep) {
      for (const std::int64_t n : kSweep) {
        const auto a = random_buffer(static_cast<std::size_t>(m * k), rng);
        const auto b = random_buffer(static_cast<std::size_t>(k * n), rng);
        const auto bt = random_buffer(static_cast<std::size_t>(n * k), rng);
        const auto at = random_buffer(static_cast<std::size_t>(k * m), rng);
        std::vector<float> zeroed(static_cast<std::size_t>(m * n), 0.0f);
        std::vector<float> dirty(static_cast<std::size_t>(m * n), 1e30f);
        kernels::gemm(a.data(), b.data(), zeroed.data(), m, k, n);
        kernels::gemm(a.data(), b.data(), dirty.data(), m, k, n, nullptr,
                      /*accumulate=*/false);
        EXPECT_EQ(zeroed, dirty) << "gemm " << m << "x" << k << "x" << n;

        std::fill(zeroed.begin(), zeroed.end(), 0.0f);
        std::fill(dirty.begin(), dirty.end(), -1e30f);
        kernels::gemm_at(at.data(), b.data(), zeroed.data(), m, k, n);
        kernels::gemm_at(at.data(), b.data(), dirty.data(), m, k, n, nullptr,
                         /*accumulate=*/false);
        EXPECT_EQ(zeroed, dirty) << "gemm_at " << m << "x" << k << "x" << n;

        std::fill(zeroed.begin(), zeroed.end(), 0.0f);
        std::fill(dirty.begin(), dirty.end(), 1e30f);
        kernels::gemm_bt(a.data(), bt.data(), zeroed.data(), m, k, n);
        kernels::gemm_bt(a.data(), bt.data(), dirty.data(), m, k, n, nullptr,
                         /*accumulate=*/false);
        EXPECT_EQ(zeroed, dirty) << "gemm_bt " << m << "x" << k << "x" << n;
      }
    }
  }
}

// ---- ISA dispatch sweep ---------------------------------------------------

// Pins every compiled-and-executable FMNET_KERNEL_ISA variant (portable /
// avx2 / avx512) in one process and holds each to the same GEMM-vs-
// reference tolerances. Restores the startup dispatch on exit so test
// order never leaks a pinned ISA.
TEST(GemmKernels, AllIsaVariantsMatchReference) {
  const kernels::Isa startup = kernels::active_isa();
  fmnet::Rng rng(115);
  const std::int64_t m = 45;
  const std::int64_t k = 33;
  // n spans the skinny widths (1, 8, 16) and a panel-path width (63).
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{8},
                               std::int64_t{16}, std::int64_t{63}}) {
    const auto a = random_buffer(static_cast<std::size_t>(m * k), rng);
    const auto b = random_buffer(static_cast<std::size_t>(k * n), rng);
    std::vector<float> ref(static_cast<std::size_t>(m * n), 0.0f);
    kernels::reference_gemm(a.data(), b.data(), ref.data(), m, k, n);
    for (const kernels::Isa isa : kernels::compiled_isas()) {
      if (!kernels::isa_supported(isa)) continue;
      kernels::set_isa(isa);
      std::vector<float> fast(static_cast<std::size_t>(m * n), 0.0f);
      kernels::gemm(a.data(), b.data(), fast.data(), m, k, n);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(fast[i], ref[i], gemm_tol(k))
            << kernels::isa_name(isa) << " n=" << n << " element " << i;
      }
    }
  }
  kernels::set_isa(startup);
}

// The skinny kernel's determinism contract (kernels_skinny.inc): an output
// row is independent of its position within the call, on every ISA. This
// is the regression test for a kMR-row quad body that contracted FMAs
// asymmetrically, so stacked windows starting at different quad phases
// diverged from the same windows computed alone.
TEST(GemmKernels, SkinnyRowsIndependentOfRowPosition) {
  const kernels::Isa startup = kernels::active_isa();
  fmnet::Rng rng(116);
  const std::int64_t m = 90;  // 90 % kMR != 0: rows cover every quad phase
  const std::int64_t k = 16;
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{8},
                               std::int64_t{16}}) {
    const auto a = random_buffer(static_cast<std::size_t>(m * k), rng);
    const auto b = random_buffer(static_cast<std::size_t>(k * n), rng);
    for (const kernels::Isa isa : kernels::compiled_isas()) {
      if (!kernels::isa_supported(isa)) continue;
      kernels::set_isa(isa);
      std::vector<float> full(static_cast<std::size_t>(m * n), 0.0f);
      kernels::gemm(a.data(), b.data(), full.data(), m, k, n);
      for (const std::int64_t i0 : {std::int64_t{1}, std::int64_t{2},
                                    std::int64_t{3}, std::int64_t{17}}) {
        std::vector<float> part(static_cast<std::size_t>((m - i0) * n),
                                0.0f);
        kernels::gemm(a.data() + i0 * k, b.data(), part.data(), m - i0, k,
                      n);
        for (std::size_t i = 0; i < part.size(); ++i) {
          EXPECT_EQ(part[i],
                    full[static_cast<std::size_t>(i0 * n) + i])
              << kernels::isa_name(isa) << " n=" << n << " offset " << i0
              << " element " << i;
        }
      }
    }
  }
  kernels::set_isa(startup);
}

// ---- fast math helpers ----------------------------------------------------

TEST(FastMath, ExpMatchesLibmWithinTolerance) {
  // softmax and the attention block run on fast_expf; keep it honest
  // against libm over the whole clamped domain.
  for (float x = -87.0f; x <= 88.0f; x += 0.0137f) {
    const float ref = std::exp(x);
    const float got = detail::fast_expf(x);
    ASSERT_NEAR(got, ref, 5e-7f * ref) << "x = " << x;
  }
  // Out-of-range inputs clamp instead of overflowing to inf or 0.
  EXPECT_GT(detail::fast_expf(-1000.0f), 0.0f);
  EXPECT_TRUE(std::isfinite(detail::fast_expf(1000.0f)));
}

TEST(FastMath, TanhMatchesLibmWithinTolerance) {
  // GELU's forward and gradient run on fast_tanhf.
  for (float x = -12.0f; x <= 12.0f; x += 0.0041f) {
    ASSERT_NEAR(detail::fast_tanhf(x), std::tanh(x), 2e-6f) << "x = " << x;
  }
  EXPECT_FLOAT_EQ(detail::fast_tanhf(50.0f), 1.0f);
  EXPECT_FLOAT_EQ(detail::fast_tanhf(-50.0f), -1.0f);
}

TEST(GemmKernels, PanelBoundaries) {
  // k > kKC exercises multi-panel packing; m > kRowBlock multi-block rows.
  fmnet::Rng rng(104);
  const std::int64_t m = kernels::kRowBlock * 2 + 5;
  const std::int64_t k = kernels::kKC + 37;
  const std::int64_t n = kernels::kKU * 13 + 3;
  const auto a = random_buffer(static_cast<std::size_t>(m * k), rng);
  const auto b = random_buffer(static_cast<std::size_t>(k * n), rng);
  std::vector<float> fast(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> ref = fast;
  kernels::gemm(a.data(), b.data(), fast.data(), m, k, n);
  kernels::reference_gemm(a.data(), b.data(), ref.data(), m, k, n);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(fast[i], ref[i], gemm_tol(k)) << "elem " << i;
  }
}

// ---- lane-count bit-identity ----------------------------------------------

TEST(GemmKernels, BitIdenticalAcrossLaneCounts) {
  // Big enough that 2*m*k*n clears kParallelFlops, so the 8-lane pool
  // really shards row blocks. Exact equality required, not tolerance.
  fmnet::Rng rng(105);
  const std::int64_t m = 160;
  const std::int64_t k = 96;
  const std::int64_t n = 144;
  ASSERT_GE(2 * m * k * n, kernels::kParallelFlops);
  const auto a = random_buffer(static_cast<std::size_t>(m * k), rng);
  const auto b = random_buffer(static_cast<std::size_t>(k * n), rng);

  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  std::vector<float> c1(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> c8 = c1;
  kernels::gemm(a.data(), b.data(), c1.data(), m, k, n, &one);
  kernels::gemm(a.data(), b.data(), c8.data(), m, k, n, &eight);
  EXPECT_EQ(c1, c8);

  std::vector<float> t1(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> t8 = t1;
  const auto bt = random_buffer(static_cast<std::size_t>(n * k), rng);
  kernels::gemm_bt(a.data(), bt.data(), t1.data(), m, k, n, &one);
  kernels::gemm_bt(a.data(), bt.data(), t8.data(), m, k, n, &eight);
  EXPECT_EQ(t1, t8);
}

// ---- matmul gradients through the new kernels -----------------------------

TEST(KernelAutograd, MatmulBatchedSharedRhsGradients) {
  fmnet::Rng rng(106);
  check_gradients({rand_input({3, 2, 4}, rng), rand_input({4, 3}, rng)},
                  [](const auto& in) {
                    return sum(square(matmul(in[0], in[1])));
                  });
}

TEST(KernelAutograd, MatmulFullyBatchedGradients) {
  fmnet::Rng rng(107);
  check_gradients({rand_input({2, 3, 4}, rng), rand_input({2, 4, 2}, rng)},
                  [](const auto& in) {
                    return sum(square(matmul(in[0], in[1])));
                  });
}

// ---- fused ops vs primitive compositions ----------------------------------

TEST(FusedOps, LinearActMatchesPrimitives) {
  fmnet::Rng rng(108);
  const Tensor x = rand_input({3, 5}, rng);
  const Tensor w = rand_input({5, 4}, rng);
  const Tensor b = rand_input({4}, rng);
  for (const Act act : {Act::kNone, Act::kRelu, Act::kGelu}) {
    const Tensor fused = linear_act(x, w, b, act);
    Tensor prim = matmul(x, w) + b;
    if (act == Act::kRelu) prim = relu(prim);
    if (act == Act::kGelu) prim = gelu(prim);
    ASSERT_EQ(fused.shape(), prim.shape());
    for (std::size_t i = 0; i < fused.data().size(); ++i) {
      EXPECT_NEAR(fused.data()[i], prim.data()[i], 1e-5f) << "elem " << i;
    }
  }
}

TEST(FusedOps, LinearActGradients) {
  fmnet::Rng rng(109);
  for (const Act act : {Act::kNone, Act::kRelu, Act::kGelu}) {
    check_gradients({rand_input({2, 3, 4}, rng), rand_input({4, 3}, rng),
                     rand_input({3}, rng)},
                    [act](const auto& in) {
                      return sum(square(
                          linear_act(in[0], in[1], in[2], act)));
                    });
  }
}

TEST(FusedOps, LayerNormMatchesPrimitives) {
  fmnet::Rng rng(110);
  const Tensor x = rand_input({4, 6}, rng);
  const Tensor gamma = rand_input({6}, rng);
  const Tensor beta = rand_input({6}, rng);
  const float eps = 1e-5f;
  const Tensor fused = layer_norm(x, gamma, beta, eps);

  const Tensor mu = mean(x, 1, /*keepdim=*/true);
  const Tensor centered = x - mu;
  const Tensor var = mean(square(centered), 1, /*keepdim=*/true);
  const Tensor prim =
      centered / tensor::sqrt(add_scalar(var, eps)) * gamma + beta;
  for (std::size_t i = 0; i < fused.data().size(); ++i) {
    EXPECT_NEAR(fused.data()[i], prim.data()[i], 1e-5f) << "elem " << i;
  }
}

TEST(FusedOps, LayerNormGradients) {
  fmnet::Rng rng(111);
  check_gradients({rand_input({2, 2, 5}, rng), rand_input({5}, rng),
                   rand_input({5}, rng)},
                  [](const auto& in) {
                    const Tensor w = Tensor::from_vector(
                        {1, -1, 2, 0.5f, -2}, {5});
                    return sum(layer_norm(in[0], in[1], in[2]) * w);
                  });
}

TEST(FusedOps, SoftmaxLastAxisAndStridedAgree) {
  // The inner==1 fast path and the general strided path must compute the
  // same distribution: softmax over axis 2 of x equals softmax over axis 1
  // of x transposed.
  fmnet::Rng rng(112);
  const Tensor x = rand_input({2, 3, 4}, rng);
  const Tensor fast = softmax(x, 2);
  const Tensor xt = transpose(x, 1, 2);  // [2, 4, 3]
  const Tensor strided = softmax(xt, 1);
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t i = 0; i < 3; ++i) {
      for (std::int64_t j = 0; j < 4; ++j) {
        EXPECT_NEAR(fast.at({b, i, j}), strided.at({b, j, i}), 1e-6f);
      }
    }
  }
}

TEST(FusedOps, SoftmaxStridedGradients) {
  fmnet::Rng rng(113);
  check_gradients({rand_input({3, 4}, rng)}, [](const auto& in) {
    const Tensor s = softmax(in[0], 0);  // strided axis (inner > 1)
    const Tensor w = Tensor::from_vector(
        {1, 2, 3, 4, -1, -2, -3, -4, 0.5f, 1, 1.5f, 2}, {3, 4});
    return sum(s * w);
  });
}

TEST(FusedOps, ScaledMatmulBtMatchesPrimitives) {
  fmnet::Rng rng(114);
  const Tensor q = rand_input({2, 3, 5}, rng);
  const Tensor k = rand_input({2, 4, 5}, rng);
  const float scale = 0.37f;
  const Tensor fused = scaled_matmul_bt(q, k, scale);
  const Tensor prim = mul_scalar(matmul(q, transpose(k, 1, 2)), scale);
  ASSERT_EQ(fused.shape(), prim.shape());
  for (std::size_t i = 0; i < fused.data().size(); ++i) {
    EXPECT_NEAR(fused.data()[i], prim.data()[i], 1e-5f) << "elem " << i;
  }
}

TEST(FusedOps, ScaledMatmulBtGradients) {
  fmnet::Rng rng(115);
  check_gradients({rand_input({2, 3, 4}, rng), rand_input({2, 2, 4}, rng)},
                  [](const auto& in) {
                    return sum(square(
                        scaled_matmul_bt(in[0], in[1], 0.5f)));
                  });
  check_gradients({rand_input({3, 4}, rng), rand_input({2, 4}, rng)},
                  [](const auto& in) {
                    return sum(square(scaled_matmul_bt(in[0], in[1], 2.0f)));
                  });
}

TEST(FusedOps, AttentionMatchesPrimitives) {
  fmnet::Rng rng(116);
  const Tensor q = rand_input({2, 3, 5}, rng);
  const Tensor k = rand_input({2, 4, 5}, rng);
  const Tensor v = rand_input({2, 4, 5}, rng);
  const float scale = 0.61f;
  const Tensor fused = attention(q, k, v, scale);
  const Tensor prim = matmul(softmax(scaled_matmul_bt(q, k, scale), 2), v);
  ASSERT_EQ(fused.shape(), prim.shape());
  for (std::size_t i = 0; i < fused.data().size(); ++i) {
    EXPECT_NEAR(fused.data()[i], prim.data()[i], 1e-5f) << "elem " << i;
  }
}

TEST(FusedOps, AttentionGradients) {
  fmnet::Rng rng(117);
  check_gradients({rand_input({2, 3, 4}, rng), rand_input({2, 3, 4}, rng),
                   rand_input({2, 3, 4}, rng)},
                  [](const auto& in) {
                    return sum(square(
                        attention(in[0], in[1], in[2], 0.5f)));
                  });
  // Cross-attention shape: queries and keys of different lengths.
  check_gradients({rand_input({1, 2, 3}, rng), rand_input({1, 4, 3}, rng),
                   rand_input({1, 4, 3}, rng)},
                  [](const auto& in) {
                    return sum(square(
                        attention(in[0], in[1], in[2], 1.0f)));
                  });
}

// ---- buffer pool -----------------------------------------------------------

TEST(BufferPool, RecyclesLargeBuffers) {
  if (!pool::enabled()) GTEST_SKIP() << "pool disabled via env";
  pool::clear();
  const auto before = pool::stats();

  const std::size_t n = pool::kMinPooledFloats * 4;
  {
    std::vector<float> buf = pool::acquire(n);
    ASSERT_EQ(buf.size(), n);
    pool::release(std::move(buf));
  }
  std::vector<float> again = pool::acquire(n);
  EXPECT_EQ(again.size(), n);
  const auto after = pool::stats();
  EXPECT_GE(after.releases, before.releases + 1);
  EXPECT_GE(after.hits, before.hits + 1);
  pool::release(std::move(again));
}

TEST(BufferPool, TinyBuffersBypass) {
  if (!pool::enabled()) GTEST_SKIP() << "pool disabled via env";
  const auto before = pool::stats();
  std::vector<float> buf = pool::acquire(pool::kMinPooledFloats / 2);
  const auto after = pool::stats();
  EXPECT_EQ(after.bypasses, before.bypasses + 1);
  EXPECT_EQ(after.hits, before.hits);
}

TEST(BufferPool, AcquireZeroReturnsZeros) {
  // Recycled buffers carry stale contents; acquire_zero must scrub them.
  const std::size_t n = pool::kMinPooledFloats * 2;
  std::vector<float> dirty = pool::acquire(n);
  std::fill(dirty.begin(), dirty.end(), 7.0f);
  pool::release(std::move(dirty));
  const std::vector<float> z = pool::acquire_zero(n);
  for (const float v : z) ASSERT_EQ(v, 0.0f);
}

TEST(BufferPool, GraphReusesBuffersAcrossSteps) {
  if (!pool::enabled()) GTEST_SKIP() << "pool disabled via env";
  // After a warm-up forward+backward has populated the pool, later
  // identically-shaped steps should be served mostly from recycled
  // buffers.
  fmnet::Rng rng(116);
  const Tensor w = rand_input({64, 64}, rng);
  auto step = [&]() {
    const Tensor x = Tensor::randn({32, 64}, rng);
    Tensor loss = sum(square(matmul(x, w)));
    loss.backward();
    return loss.item();
  };
  step();  // warm-up populates the pool as its graph dies
  const auto warm = pool::stats();
  step();
  const auto after = pool::stats();
  EXPECT_GT(after.hits, warm.hits);
}

}  // namespace
}  // namespace fmnet::tensor
