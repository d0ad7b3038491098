#include "serve/serve.h"

#include <algorithm>
#include <utility>

#include "impute/registry.h"
#include "util/check.h"
#include "util/mpsc_queue.h"

namespace fmnet::serve {

namespace {

/// Prime stride decorrelating session phases: neighbouring sessions replay
/// the same recording at well-separated offsets, so their windows fill
/// (and their load arrives) spread out rather than in lockstep bursts.
constexpr std::int64_t kPhaseStride = 7919;

/// Sessions per ingest shard. A pure function of the session count (never
/// of the lane count), so the shard decomposition — and therefore every
/// published bit — is identical at any FMNET_THREADS.
constexpr std::int64_t kIngestShard = 64;

std::vector<double> newest_interval(const std::vector<double>& full,
                                    std::size_t factor) {
  FMNET_CHECK_GE(full.size(), factor);
  return {full.end() - static_cast<std::ptrdiff_t>(factor), full.end()};
}

}  // namespace

ServeCore::ServeCore(const ServeConfig& config,
                     std::shared_ptr<impute::Imputer> model,
                     std::size_t window_intervals, std::size_t factor,
                     double qlen_scale, double count_scale,
                     impute::CemConfig cem, const util::Clock* clock,
                     util::ThreadPool* pool)
    : config_(config),
      model_(std::move(model)),
      fallback_(impute::Registry::create("linear", {})),
      factor_(factor),
      qlen_scale_(qlen_scale),
      cem_(cem),
      clock_(clock),
      pool_(pool),
      obs_raw_(obs::Registry::global().counter("serve.windows.raw")),
      obs_repaired_(
          obs::Registry::global().counter("serve.windows.repaired")),
      obs_degraded_(
          obs::Registry::global().counter("serve.windows.degraded")),
      obs_shed_queue_(obs::Registry::global().counter("serve.shed.queue")),
      obs_shed_repair_(
          obs::Registry::global().counter("serve.shed.repair")),
      obs_batches_(obs::Registry::global().counter("serve.batches")),
      obs_queue_depth_(obs::Registry::global().gauge("serve.queue.depth")),
      obs_latency_raw_(
          obs::Registry::global().percentiles("serve.latency.raw_ms")),
      obs_latency_repair_(
          obs::Registry::global().percentiles("serve.latency.repair_ms")) {
  FMNET_CHECK(model_ != nullptr, "null serving model");
  FMNET_CHECK(config_.enabled(), "serve.sessions must be > 0");
  FMNET_CHECK_GT(config_.max_batch, 0);
  FMNET_CHECK_GE(config_.max_delay_ticks, 0);
  FMNET_CHECK_GT(config_.queue_budget, 0);
  FMNET_CHECK_GE(config_.repair_budget, 0);
  sessions_.reserve(static_cast<std::size_t>(config_.sessions));
  for (std::int64_t i = 0; i < config_.sessions; ++i) {
    sessions_.emplace_back(i, window_intervals, factor, qlen_scale,
                           count_scale, cem_);
  }
}

void ServeCore::ingest(
    const std::vector<impute::CoarseIntervalUpdate>& updates) {
  FMNET_CHECK_EQ(updates.size(), sessions_.size());
  const double arrival = util::Clock::resolve(clock_).now();
  const auto num_sessions = static_cast<std::int64_t>(sessions_.size());
  const std::int64_t num_shards =
      (num_sessions + kIngestShard - 1) / kIngestShard;
  // Cross-lane hand-off: shards publish ready windows lock-free; the
  // drained batch is sorted by session id below, which restores a
  // deterministic processing order regardless of lane interleaving.
  util::MpscQueue<ReadyWindow> queue(
      static_cast<std::size_t>(num_sessions));
  util::ThreadPool::resolve(pool_).parallel_for(
      0, num_shards, [&](std::int64_t shard) {
        const std::int64_t begin = shard * kIngestShard;
        const std::int64_t end =
            std::min(begin + kIngestShard, num_sessions);
        for (std::int64_t i = begin; i < end; ++i) {
          Session& s = sessions_[static_cast<std::size_t>(i)];
          if (!s.window.push(updates[static_cast<std::size_t>(i)])) {
            continue;
          }
          ReadyWindow w;
          w.session = i;
          w.tick = tick_;
          w.arrival = arrival;
          w.ex = s.window.make_example();
          FMNET_CHECK(queue.try_push(std::move(w)),
                      "ready-queue overflow (capacity == sessions)");
        }
      });
  std::vector<ReadyWindow> drained = queue.drain();
  std::sort(drained.begin(), drained.end(),
            [](const ReadyWindow& a, const ReadyWindow& b) {
              return a.session < b.session;
            });
  for (ReadyWindow& w : drained) ready_.push_back(std::move(w));
}

void ServeCore::publish_degraded(const ReadyWindow& w,
                                 std::vector<PublishedWindow>& out) {
  const std::vector<double> full = fallback_->impute(w.ex);
  PublishedWindow p;
  p.session = w.session;
  p.tick = w.tick;
  p.kind = WindowKind::kDegraded;
  p.fine = newest_interval(full, factor_);
  p.latency_seconds = util::Clock::resolve(clock_).now() - w.arrival;
  out.push_back(std::move(p));
  ++stats_.windows_degraded;
  obs_degraded_.add(1);
}

void ServeCore::shed_over_budget(std::vector<PublishedWindow>& out) {
  while (static_cast<std::int64_t>(ready_.size()) > config_.queue_budget) {
    const ReadyWindow w = std::move(ready_.front());
    ready_.pop_front();
    publish_degraded(w, out);
    ++stats_.shed_queue;
    obs_shed_queue_.add(1);
    ++sessions_[static_cast<std::size_t>(w.session)].windows_shed;
  }
}

void ServeCore::flush_ready(bool force, std::vector<PublishedWindow>& out) {
  // A batch is the flush and accounting unit: every full batch of
  // max_batch flushes, and the partial remainder flushes when forced or
  // once its oldest window has waited max_delay_ticks.
  const auto max_batch = static_cast<std::size_t>(config_.max_batch);
  std::int64_t batches = static_cast<std::int64_t>(ready_.size() / max_batch);
  std::size_t count = static_cast<std::size_t>(batches) * max_batch;
  if (count < ready_.size() &&
      (force || tick_ - ready_[count].tick >= config_.max_delay_ticks)) {
    count = ready_.size();
    ++batches;
  }
  if (count == 0) return;
  std::vector<ReadyWindow> items(
      std::make_move_iterator(ready_.begin()),
      std::make_move_iterator(ready_.begin() +
                              static_cast<std::ptrdiff_t>(count)));
  ready_.erase(ready_.begin(),
               ready_.begin() + static_cast<std::ptrdiff_t>(count));
  stats_.batches += batches;
  obs_batches_.add(batches);

  // Inference fans out one task per window (Imputer::impute is safe to
  // call concurrently); each task writes only its own slot, and results
  // publish below in ready order, so the stream is lane-count invariant.
  struct Inferred {
    std::vector<double> fine;  // newest interval, packets
    RepairJob job;             // filled when repair is on
  };
  std::vector<Inferred> inferred(count);
  util::ThreadPool::resolve(pool_).parallel_for(
      0, static_cast<std::int64_t>(count), [&](std::int64_t i) {
        const ReadyWindow& w = items[static_cast<std::size_t>(i)];
        Inferred& r = inferred[static_cast<std::size_t>(i)];
        const std::vector<double> full = model_->impute(w.ex);
        FMNET_CHECK_EQ(full.size(), w.ex.window);
        r.fine = newest_interval(full, factor_);
        if (config_.repair) r.job = make_repair_job(w, r.fine);
      });

  const double now = util::Clock::resolve(clock_).now();
  for (std::size_t i = 0; i < count; ++i) {
    PublishedWindow p;
    p.session = items[i].session;
    p.tick = items[i].tick;
    p.kind = WindowKind::kRaw;
    p.fine = std::move(inferred[i].fine);
    p.latency_seconds = now - items[i].arrival;
    ++stats_.windows_raw;
    obs_raw_.add(1);
    obs_latency_raw_.record(p.latency_seconds * 1e3);
    ++sessions_[static_cast<std::size_t>(p.session)].windows_published;
    if (config_.repair) repairs_.push_back(std::move(inferred[i].job));
    out.push_back(std::move(p));
  }

  while (static_cast<std::int64_t>(repairs_.size()) >
         config_.repair_budget) {
    repairs_.pop_front();
    ++stats_.shed_repair;
    obs_shed_repair_.add(1);
  }
}

ServeCore::RepairJob ServeCore::make_repair_job(
    const ReadyWindow& w, const std::vector<double>& fine) const {
  // Constraints in packet units, sample positions relative to the newest
  // interval.
  const impute::CemConstraints c =
      impute::to_packet_constraints(w.ex.constraints, qlen_scale_);
  const auto intervals = static_cast<std::int64_t>(c.window_max.size());
  FMNET_CHECK_GT(intervals, 0);
  RepairJob job;
  job.session = w.session;
  job.tick = w.tick;
  job.arrival = w.arrival;
  job.raw = fine;
  job.m_max = c.window_max.back();
  job.m_out = c.port_sent.back();
  job.sample_at.assign(factor_, -1);
  const std::int64_t begin =
      (intervals - 1) * static_cast<std::int64_t>(factor_);
  for (std::size_t k = 0; k < c.sample_idx.size(); ++k) {
    const std::int64_t rel = c.sample_idx[k] - begin;
    if (rel >= 0 && rel < static_cast<std::int64_t>(factor_)) {
      job.sample_at[static_cast<std::size_t>(rel)] = c.sample_val[k];
    }
  }
  return job;
}

void ServeCore::run_repairs(std::vector<PublishedWindow>& out) {
  if (repairs_.empty()) return;
  std::vector<RepairJob> jobs(std::make_move_iterator(repairs_.begin()),
                              std::make_move_iterator(repairs_.end()));
  repairs_.clear();
  // A session's jobs share its StreamingCemRepair warm-start state, and a
  // flush of windows held back over max-delay ticks queues several jobs
  // for one session. So jobs are grouped by session (stable, job order
  // kept inside a group): groups run concurrently on disjoint
  // Session::repair state, each group's jobs serially in order. Results
  // land in job-indexed slots for a deterministic publish sequence.
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return jobs[a].session < jobs[b].session;
                   });
  std::vector<std::size_t> group_begin;
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k == 0 || jobs[order[k]].session != jobs[order[k - 1]].session) {
      group_begin.push_back(k);
    }
  }
  group_begin.push_back(order.size());
  std::vector<impute::CemResult> results(jobs.size());
  util::ThreadPool::resolve(pool_).parallel_for(
      0, static_cast<std::int64_t>(group_begin.size()) - 1,
      [&](std::int64_t g) {
        const auto gi = static_cast<std::size_t>(g);
        for (std::size_t k = group_begin[gi]; k < group_begin[gi + 1]; ++k) {
          const RepairJob& job = jobs[order[k]];
          results[order[k]] =
              sessions_[static_cast<std::size_t>(job.session)].repair.repair(
                  job.raw, job.m_max, job.m_out, job.sample_at);
        }
      });
  const double now = util::Clock::resolve(clock_).now();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    PublishedWindow p;
    p.session = jobs[j].session;
    p.tick = jobs[j].tick;
    p.kind = WindowKind::kRepaired;
    p.fine = std::move(results[j].corrected);
    p.latency_seconds = now - jobs[j].arrival;
    ++stats_.windows_repaired;
    obs_repaired_.add(1);
    obs_latency_repair_.record(p.latency_seconds * 1e3);
    out.push_back(std::move(p));
  }
}

void ServeCore::tick(
    const std::vector<impute::CoarseIntervalUpdate>& updates,
    std::vector<PublishedWindow>& out) {
  // Repair jobs enqueued on earlier ticks run first — the async lane is
  // always one tick behind the prediction path, deterministically.
  run_repairs(out);
  ingest(updates);
  obs_queue_depth_.set_max(static_cast<double>(ready_.size()));
  shed_over_budget(out);
  flush_ready(/*force=*/false, out);
  ++tick_;
}

void ServeCore::drain(std::vector<PublishedWindow>& out) {
  flush_ready(/*force=*/true, out);
  run_repairs(out);
}

ReplaySource::ReplaySource(const telemetry::CoarseTelemetry& coarse,
                           std::int64_t queues_per_port,
                           std::int64_t sessions)
    : coarse_(coarse),
      queues_per_port_(queues_per_port),
      sessions_(sessions),
      num_queues_(static_cast<std::int64_t>(coarse.periodic_qlen.size())),
      num_intervals_(static_cast<std::int64_t>(coarse.num_intervals())) {
  FMNET_CHECK_GT(sessions_, 0);
  FMNET_CHECK_GT(queues_per_port_, 0);
  FMNET_CHECK_GT(num_queues_, 0);
  FMNET_CHECK_GT(num_intervals_, 0);
}

void ReplaySource::fill(
    std::int64_t tick,
    std::vector<impute::CoarseIntervalUpdate>& updates) const {
  FMNET_CHECK_GE(tick, 0);
  updates.resize(static_cast<std::size_t>(sessions_));
  for (std::int64_t i = 0; i < sessions_; ++i) {
    const std::int64_t q = i % num_queues_;
    const std::int64_t port = q / queues_per_port_;
    const std::int64_t interval =
        ((i * kPhaseStride) % num_intervals_ + tick) % num_intervals_;
    auto& u = updates[static_cast<std::size_t>(i)];
    const auto qi = static_cast<std::size_t>(q);
    const auto pi = static_cast<std::size_t>(port);
    const auto ti = static_cast<std::size_t>(interval);
    u.periodic_qlen = coarse_.periodic_qlen[qi][ti];
    u.max_qlen = coarse_.max_qlen[qi][ti];
    u.port_sent = coarse_.snmp_sent[pi][ti];
    u.port_dropped = coarse_.snmp_dropped[pi][ti];
  }
}

}  // namespace fmnet::serve
