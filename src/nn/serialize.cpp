#include "nn/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "util/check.h"

namespace fmnet::nn {

namespace {
constexpr std::uint32_t kMagic = 0x464d4e31;  // "FMN1"

template <class T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <class T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  FMNET_CHECK(in.good(), "unexpected end of checkpoint stream");
  return v;
}

bool all_finite(const std::vector<float>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](float v) { return std::isfinite(v); });
}
}  // namespace

bool all_parameters_finite(const Module& module) {
  const auto params = module.parameters();
  return std::all_of(params.begin(), params.end(),
                     [](const Tensor& p) { return all_finite(p.data()); });
}

void save_parameters(const Module& module, std::ostream& out) {
  const auto params = module.parameters();
  write_pod(out, kMagic);
  write_pod(out, static_cast<std::uint64_t>(params.size()));
  for (const Tensor& p : params) {
    write_pod(out, static_cast<std::uint64_t>(p.ndim()));
    for (const std::int64_t d : p.shape()) write_pod(out, d);
    out.write(reinterpret_cast<const char*>(p.data().data()),
              static_cast<std::streamsize>(p.data().size() * sizeof(float)));
  }
  FMNET_CHECK(out.good(), "checkpoint write failed");
}

void load_parameters(Module& module, std::istream& in) {
  FMNET_CHECK_EQ(read_pod<std::uint32_t>(in), kMagic);
  auto params = module.parameters();
  const auto count = read_pod<std::uint64_t>(in);
  FMNET_CHECK_EQ(count, params.size());
  // Every tensor is read and checked before any is copied in, so a
  // rejected checkpoint leaves the module exactly as it was.
  std::vector<std::vector<float>> staged(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& p = params[i];
    const auto ndim = read_pod<std::uint64_t>(in);
    FMNET_CHECK_EQ(ndim, p.ndim());
    for (std::size_t d = 0; d < ndim; ++d) {
      FMNET_CHECK_EQ(read_pod<std::int64_t>(in), p.shape()[d]);
    }
    staged[i].resize(p.data().size());
    in.read(reinterpret_cast<char*>(staged[i].data()),
            static_cast<std::streamsize>(staged[i].size() * sizeof(float)));
    FMNET_CHECK(in.good(), "unexpected end of checkpoint stream");
    FMNET_CHECK(all_finite(staged[i]), "checkpoint holds non-finite weights");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::copy(staged[i].begin(), staged[i].end(), params[i].data().begin());
  }
}

void save_parameters(const Module& module, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  FMNET_CHECK(out.good(), "cannot open " + path + " for writing");
  save_parameters(module, static_cast<std::ostream&>(out));
  FMNET_CHECK(out.good(), "write to " + path + " failed");
}

void load_parameters(Module& module, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FMNET_CHECK(in.good(), "cannot open " + path + " for reading");
  load_parameters(module, static_cast<std::istream&>(in));
}

}  // namespace fmnet::nn
