#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <thread>

#include "obs/metrics.h"
#include "tensor/kernels.h"
#include "util/check.h"
#include "util/string_util.h"

namespace perfbench {

Quantile percentile(std::vector<double> values, double p) {
  FMNET_CHECK(!values.empty(), "percentile of an empty sample");
  FMNET_CHECK(p > 0.0 && p <= 100.0, "percentile outside (0, 100]");
  const auto n = static_cast<std::int64_t>(values.size());
  auto rank = static_cast<std::int64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::int64_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  Quantile q;
  q.value = values[static_cast<std::size_t>(rank - 1)];
  q.samples = n;
  q.beyond = n - rank;
  return q;
}

Quantile tail_percentile(std::vector<double> values, double p,
                         std::int64_t min_beyond) {
  const Quantile q = percentile(std::move(values), p);
  FMNET_CHECK(q.beyond >= min_beyond,
              "p" + std::to_string(p) + " over " + std::to_string(q.samples) +
                  " samples has only " + std::to_string(q.beyond) +
                  " beyond it");
  return q;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0).value;
}

double now_s() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---- Tracer ---------------------------------------------------------------

namespace {
thread_local std::int64_t t_current_span = -1;

std::uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff;
}
}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* name, std::string request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Record r;
  r.name = name;
  r.parent = t_current_span;
  r.thread = thread_tag();
  r.start_s = now_s();
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    r.id = static_cast<std::int64_t>(tracer_->records_.size());
    if (request.empty() && r.parent >= 0) {
      request = tracer_->records_[static_cast<std::size_t>(r.parent)].request;
    }
    r.request = std::move(request);
    index_ = r.id;
    tracer_->records_.push_back(std::move(r));
  }
  saved_parent_ = t_current_span;
  t_current_span = index_;
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const double end = now_s();
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    tracer_->records_[static_cast<std::size_t>(index_)].end_s = end;
  }
  t_current_span = saved_parent_;
}

std::vector<double> Tracer::durations(const std::string& name,
                                      const std::string& request) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Record& r : records_) {
    if (r.name == name && (request.empty() || r.request == request)) {
      out.push_back(r.end_s - r.start_s);
    }
  }
  return out;
}

double Tracer::self_seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::int64_t, std::vector<std::pair<double, double>>> children;
  for (const Record& r : records_) {
    if (r.parent >= 0 &&
        records_[static_cast<std::size_t>(r.parent)].name == name) {
      children[r.parent].emplace_back(r.start_s, r.end_s);
    }
  }
  double total = 0.0;
  for (const Record& r : records_) {
    if (r.name != name) continue;
    double covered = 0.0;
    auto it = children.find(r.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0;
      double cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, r.start_s);
        hi = std::min(hi, r.end_s);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    total += (r.end_s - r.start_s) - covered;
  }
  return total;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  FMNET_CHECK(out.good(), "cannot write trace " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::lock_guard<std::mutex> lock(mu_);
  bool first = true;
  for (const Record& r : records_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":" << json_str(r.name) << ",\"cat\":\"perfbench\""
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread
        << ",\"ts\":" << json_num(r.start_s * 1e6)
        << ",\"dur\":" << json_num((r.end_s - r.start_s) * 1e6)
        << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
        << ",\"request\":" << json_str(r.request) << "}}";
  }
  out << "\n]}\n";
}

// ---- TimedImputer -----------------------------------------------------------

TimedImputer::TimedImputer(std::shared_ptr<fmnet::impute::Imputer> inner,
                           std::vector<double>* latencies_ms, Tracer* tracer,
                           const char* span_name, std::string request)
    : inner_(std::move(inner)),
      latencies_ms_(latencies_ms),
      tracer_(tracer),
      span_name_(span_name),
      request_(std::move(request)) {}

std::vector<double> TimedImputer::impute(
    const fmnet::impute::ImputationExample& ex) {
  const auto span = tracer_->span(span_name_, request_);
  const double t0 = now_s();
  std::vector<double> out = inner_->impute(ex);
  if (latencies_ms_ != nullptr) latencies_ms_->push_back((now_s() - t0) * 1e3);
  return out;
}

std::vector<std::vector<double>> TimedImputer::impute_batch(
    const std::vector<fmnet::impute::ImputationExample>& batch) {
  const auto span = tracer_->span(span_name_, request_);
  const double t0 = now_s();
  auto out = inner_->impute_batch(batch);
  if (latencies_ms_ != nullptr) latencies_ms_->push_back((now_s() - t0) * 1e3);
  return out;
}

// ---- pacing -------------------------------------------------------------------

std::vector<TickTiming> run_open_loop(
    std::int64_t ticks, double interval_s, const fmnet::util::Clock& clock,
    const std::function<void(double)>& wait_until,
    const std::function<void(std::int64_t)>& do_tick,
    const std::function<void(std::int64_t, const TickTiming&)>& after_tick) {
  std::vector<TickTiming> out(static_cast<std::size_t>(ticks));
  const double t0 = clock.now();
  for (std::int64_t t = 0; t < ticks; ++t) {
    TickTiming& tt = out[static_cast<std::size_t>(t)];
    tt.due = t0 + static_cast<double>(t) * interval_s;
    if (clock.now() < tt.due) wait_until(tt.due);
    tt.start = clock.now();
    do_tick(t);
    tt.end = clock.now();
    after_tick(t, tt);
  }
  return out;
}

void sleep_until_wall(const fmnet::util::Clock& clock, double t) {
  for (double now = clock.now(); now < t; now = clock.now()) {
    std::this_thread::sleep_for(std::chrono::duration<double>(t - now));
  }
}

// ---- counters, RSS, conditions ------------------------------------------------

std::map<std::string, std::int64_t> counter_snapshot() {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, value] : fmnet::obs::Registry::global().counters()) {
    out[name] = value;
  }
  return out;
}

std::map<std::string, std::int64_t> counter_delta(
    const std::map<std::string, std::int64_t>& before,
    const std::map<std::string, std::int64_t>& after) {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, value] : after) out[name] = value - get(before, name);
  return out;
}

std::int64_t get(const std::map<std::string, std::int64_t>& m,
                 const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

Conditions current_conditions(const std::string& scenario_hash,
                              std::uint64_t seed) {
  Conditions c;
  c.nproc = static_cast<int>(std::thread::hardware_concurrency());
  const char* threads = std::getenv("FMNET_THREADS");
  c.fmnet_threads = threads != nullptr ? threads : "";
  c.isa = fmnet::tensor::kernels::isa_name(fmnet::tensor::kernels::active_isa());
#ifdef PERFBENCH_BUILD_TYPE
  c.build_type = PERFBENCH_BUILD_TYPE;
#endif
#if defined(__clang__)
  c.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  c.compiler = std::string("gcc ") + __VERSION__;
#endif
  c.fmnet_fast = fmnet::fast_mode();
  c.scenario_hash = scenario_hash;
  c.seed = seed;
  return c;
}

// ---- hashing, JSON -----------------------------------------------------------

std::uint64_t fnv64(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv64_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return fnv64(h, bits);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
