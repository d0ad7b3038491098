// Scenario engine and artifact store: stable cache keys, integrity
// checking, corrupted-artifact recovery, checkpoint round-trips,
// cold-vs-warm bit-identical results, and diverged fits kept out of the
// store.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/artifact_store.h"
#include "core/engine.h"
#include "core/evaluation.h"
#include "core/scenario.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/hash.h"

namespace fmnet {
namespace {

namespace fs = std::filesystem;

/// A campaign small enough that a full engine run (simulate + prepare +
/// train + evaluate) takes well under a second.
core::Scenario small_scenario() {
  core::Scenario s;
  s.name = "engine-test";
  s.campaign.num_ports = 2;
  s.campaign.buffer_size = 200;
  s.campaign.slots_per_ms = 10;
  s.campaign.total_ms = 400;
  s.campaign.seed = 5;
  s.campaign.shard_ms = 100;
  s.window_ms = 100;
  s.factor = 50;
  s.model.d_model = 8;
  s.model.num_heads = 2;
  s.model.num_layers = 1;
  s.model.d_ff = 16;
  s.model.max_seq_len = 128;
  s.train.epochs = 1;
  s.train.batch_size = 4;
  s.train.seed = 7;
  s.methods = {"linear", "transformer+kal", "transformer+kal+cem"};
  return s;
}

/// Fresh per-test store directory under the system temp dir.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("fmnet_" + name);
  fs::remove_all(dir);
  return dir.string();
}

std::string table_to_string(const std::vector<core::Table1Row>& rows) {
  std::ostringstream os;
  core::print_table1(rows, os);
  return os.str();
}

struct ArtifactCounters {
  std::int64_t hit;
  std::int64_t miss;
  std::int64_t write;
  std::int64_t corrupt;

  static ArtifactCounters now() {
    auto& r = obs::Registry::global();
    return {r.counter("engine.artifact.hit").value(),
            r.counter("engine.artifact.miss").value(),
            r.counter("engine.artifact.write").value(),
            r.counter("engine.artifact.corrupt").value()};
  }

  ArtifactCounters delta(const ArtifactCounters& since) const {
    return {hit - since.hit, miss - since.miss, write - since.write,
            corrupt - since.corrupt};
  }
};

TEST(Hash, StableKeyPinnedAcrossBuilds) {
  // The cache key function must never drift: a different key silently
  // orphans every artifact ever written. Pinned against an independent
  // implementation of the dual-stream FNV-1a.
  EXPECT_EQ(util::stable_key("fmnet-hash-stability"),
            "519717a93ec08db07b87f07e2cbe9a31");
  EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ULL);
}

TEST(Hash, StreamHasherMatchesOneShot) {
  const std::string bytes = "chunked hashing must equal one-shot hashing";
  util::StreamHasher h;
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    const std::size_t n = std::min<std::size_t>(7, bytes.size() - i);
    h.update(bytes.data() + i, n);
  }
  EXPECT_EQ(h.hex(), util::stable_key(bytes));
}

TEST(Engine, CacheKeysChainThroughStages) {
  const core::Scenario s = small_scenario();

  // A campaign change invalidates every stage.
  core::Scenario seed = s;
  seed.campaign.seed = 6;
  EXPECT_NE(core::Engine::campaign_key(seed.campaign),
            core::Engine::campaign_key(s.campaign));
  EXPECT_NE(core::Engine::dataset_key(seed), core::Engine::dataset_key(s));
  EXPECT_NE(core::Engine::checkpoint_key(seed, "transformer"),
            core::Engine::checkpoint_key(s, "transformer"));

  // Sharding changes per-shard seeds, so it is campaign content identity.
  core::Scenario shard = s;
  shard.campaign.shard_ms = 200;
  EXPECT_NE(core::Engine::campaign_key(shard.campaign),
            core::Engine::campaign_key(s.campaign));

  // A windowing change keeps the campaign but invalidates the dataset on.
  core::Scenario window = s;
  window.factor = 25;
  EXPECT_EQ(core::Engine::campaign_key(window.campaign),
            core::Engine::campaign_key(s.campaign));
  EXPECT_NE(core::Engine::dataset_key(window), core::Engine::dataset_key(s));
  EXPECT_NE(core::Engine::checkpoint_key(window, "transformer"),
            core::Engine::checkpoint_key(s, "transformer"));

  // A training change invalidates only the checkpoint.
  core::Scenario train = s;
  train.train.epochs = 2;
  EXPECT_EQ(core::Engine::dataset_key(train), core::Engine::dataset_key(s));
  EXPECT_NE(core::Engine::checkpoint_key(train, "transformer"),
            core::Engine::checkpoint_key(s, "transformer"));

  // Distinct methods train distinct models — except +cem, which adds no
  // trainable parameters and shares its base's checkpoint.
  EXPECT_NE(core::Engine::checkpoint_key(s, "transformer"),
            core::Engine::checkpoint_key(s, "transformer+kal"));
  EXPECT_EQ(core::Engine::checkpoint_key(s, "transformer+kal"),
            core::Engine::checkpoint_key(s, "transformer+kal+cem"));
}

TEST(ArtifactStore, DisabledStoreMissesAndDropsWrites) {
  const core::ArtifactStore store;
  EXPECT_FALSE(store.enabled());
  EXPECT_FALSE(store.find("campaign", "00").has_value());
  EXPECT_FALSE(
      store.put("campaign", "00", [](std::ostream& os) { os << "x"; })
          .has_value());
}

TEST(ArtifactStore, PutThenFindRoundTrips) {
  const core::ArtifactStore store(fresh_dir("store_roundtrip"));
  const auto before = ArtifactCounters::now();

  const auto written = store.put(
      "campaign", "abc123", [](std::ostream& os) { os << "payload bytes"; });
  ASSERT_TRUE(written.has_value());

  const auto found = store.find("campaign", "abc123");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, *written);
  std::ifstream in(*found, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "payload bytes");

  // Distinct kinds with the same key are distinct artifacts.
  EXPECT_FALSE(store.find("dataset", "abc123").has_value());

  const auto d = ArtifactCounters::now().delta(before);
  EXPECT_EQ(d.write, 1);
  EXPECT_EQ(d.hit, 1);
  EXPECT_EQ(d.miss, 1);
  EXPECT_EQ(d.corrupt, 0);
}

TEST(ArtifactStore, CorruptedPayloadIsRejectedAndRemoved) {
  const core::ArtifactStore store(fresh_dir("store_corrupt"));
  const auto path = store.put(
      "dataset", "feed42", [](std::ostream& os) { os << "original"; });
  ASSERT_TRUE(path.has_value());

  // Flip the payload behind the store's back.
  {
    std::ofstream out(*path, std::ios::binary | std::ios::trunc);
    out << "tampered";
  }
  const auto before = ArtifactCounters::now();
  EXPECT_FALSE(store.find("dataset", "feed42").has_value());
  const auto d = ArtifactCounters::now().delta(before);
  EXPECT_EQ(d.corrupt, 1);
  EXPECT_EQ(d.miss, 1);
  EXPECT_EQ(d.hit, 0);

  // The corrupt pair is gone: the next lookup is a clean miss, and a fresh
  // put restores a loadable artifact.
  EXPECT_FALSE(fs::exists(*path));
  const auto before2 = ArtifactCounters::now();
  EXPECT_FALSE(store.find("dataset", "feed42").has_value());
  EXPECT_EQ(ArtifactCounters::now().delta(before2).corrupt, 0);
  store.put("dataset", "feed42", [](std::ostream& os) { os << "again"; });
  EXPECT_TRUE(store.find("dataset", "feed42").has_value());
}

TEST(ArtifactStore, MissingSidecarIsAMiss) {
  const core::ArtifactStore store(fresh_dir("store_nosum"));
  const auto path =
      store.put("checkpoint", "00ff", [](std::ostream& os) { os << "w"; });
  ASSERT_TRUE(path.has_value());
  fs::path sidecar = *path;
  sidecar.replace_extension(".sum");
  fs::remove(sidecar);
  EXPECT_FALSE(store.find("checkpoint", "00ff").has_value());
}

TEST(Engine, CorruptCampaignArtifactIsRecomputed) {
  const core::Scenario s = small_scenario();
  const std::string dir = fresh_dir("engine_recompute");

  core::Engine cold{core::ArtifactStore(dir)};
  const core::Campaign truth = cold.campaign(s.campaign);

  // Truncate the cached campaign payload.
  const auto path =
      cold.store().find("campaign", core::Engine::campaign_key(s.campaign));
  ASSERT_TRUE(path.has_value());
  { std::ofstream out(*path, std::ios::binary | std::ios::trunc); }

  core::Engine warm{core::ArtifactStore(dir)};
  const core::Campaign recomputed = warm.campaign(s.campaign);
  EXPECT_EQ(truth.gt.queue_len, recomputed.gt.queue_len);
  EXPECT_EQ(truth.gt.port_sent, recomputed.gt.port_sent);
  EXPECT_EQ(truth.gt.port_dropped, recomputed.gt.port_dropped);
  // ... and the store holds a valid artifact again.
  EXPECT_TRUE(
      cold.store()
          .find("campaign", core::Engine::campaign_key(s.campaign))
          .has_value());
}

TEST(Engine, CheckpointRoundTripIsBitIdentical) {
  const core::Scenario s = small_scenario();
  const std::string dir = fresh_dir("engine_checkpoint");

  core::Engine cold{core::ArtifactStore(dir)};
  const core::Campaign campaign = cold.campaign(s.campaign);
  const core::PreparedData data = cold.prepare(s, campaign);
  ASSERT_FALSE(data.split.test.empty());
  const auto trained = cold.fit_method(s, "transformer+kal", data);

  const auto before = ArtifactCounters::now();
  core::Engine warm{core::ArtifactStore(dir)};
  const auto loaded = warm.fit_method(s, "transformer+kal", data);
  EXPECT_EQ(ArtifactCounters::now().delta(before).hit, 1);

  for (const auto& ex : data.split.test) {
    EXPECT_EQ(trained.imputer->impute(ex), loaded.imputer->impute(ex));
  }
}

TEST(Engine, DivergedFitIsRefusedAndNeverCheckpointed) {
  // A learning rate this large overflows the weights within one epoch. The
  // checkpoint key is still valid, so a cached copy would be served on
  // every warm run: the fit must fail before the store sees it.
  core::Scenario s = small_scenario();
  s.train.lr = 1e30f;
  const std::string dir = fresh_dir("engine_diverged");

  core::Engine engine{core::ArtifactStore(dir)};
  const core::Campaign campaign = engine.campaign(s.campaign);
  const core::PreparedData data = engine.prepare(s, campaign);
  EXPECT_THROW(engine.fit_method(s, "transformer", data), CheckError);

  const core::ArtifactStore store(dir);
  EXPECT_FALSE(
      store.find("checkpoint", core::Engine::checkpoint_key(s, "transformer"))
          .has_value());
}

TEST(Engine, NonFiniteCheckpointIsRetrainedAsCold) {
  // A NaN checkpoint under the method's key must be refused, and the retrain
  // must start from the constructed model, not from weights a rejected load
  // left behind: the result equals a fit on a cold store.
  const core::Scenario s = small_scenario();
  core::Engine cold{core::ArtifactStore(fresh_dir("engine_cold_fit"))};
  const core::Campaign campaign = cold.campaign(s.campaign);
  const core::PreparedData data = cold.prepare(s, campaign);
  const auto fitted = cold.fit_method(s, "transformer+kal", data);

  // Trained weights with the last value poisoned: every tensor but the
  // last differs from the constructed model.
  const auto bad = cold.fit_method(s, "transformer+kal", data);
  bad.trainable->model().parameters().back().data().back() = std::nanf("");
  const std::string dir = fresh_dir("engine_nan_checkpoint");
  core::ArtifactStore(dir).put(
      "checkpoint", core::Engine::checkpoint_key(s, "transformer+kal"),
      [&](std::ostream& out) {
        nn::save_parameters(bad.trainable->model(), out);
      });

  core::Engine warm{core::ArtifactStore(dir)};
  const auto refit = warm.fit_method(s, "transformer+kal", data);
  const auto want = fitted.trainable->model().parameters();
  const auto got = refit.trainable->model().parameters();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].data(), got[i].data()) << "parameter " << i;
  }
}

TEST(Engine, WarmRunServesFromCacheBitIdentically) {
  const core::Scenario s = small_scenario();
  const std::string dir = fresh_dir("engine_warm");

  const auto t0 = ArtifactCounters::now();
  core::Engine cold{core::ArtifactStore(dir)};
  const auto cold_rows = cold.run(s);
  const auto cold_delta = ArtifactCounters::now().delta(t0);
  // Cold: campaign + dataset + one checkpoint (linear has none, +cem
  // shares the transformer+kal fit) — all misses, all written.
  EXPECT_EQ(cold_delta.miss, 3);
  EXPECT_EQ(cold_delta.write, 3);
  EXPECT_EQ(cold_delta.hit, 0);

  const auto t1 = ArtifactCounters::now();
  core::Engine warm{core::ArtifactStore(dir)};
  const auto warm_rows = warm.run(s);
  const auto warm_delta = ArtifactCounters::now().delta(t1);
  EXPECT_EQ(warm_delta.hit, 3);
  EXPECT_EQ(warm_delta.miss, 0);
  EXPECT_EQ(warm_delta.write, 0);

  ASSERT_EQ(cold_rows.size(), s.methods.size());
  EXPECT_EQ(table_to_string(cold_rows), table_to_string(warm_rows));
  for (std::size_t i = 0; i < cold_rows.size(); ++i) {
    EXPECT_EQ(cold_rows[i].max_constraint, warm_rows[i].max_constraint);
    EXPECT_EQ(cold_rows[i].burst_detection, warm_rows[i].burst_detection);
    EXPECT_EQ(cold_rows[i].empty_queue_freq, warm_rows[i].empty_queue_freq);
  }

  // A cache-less engine produces the same table as both.
  core::Engine plain{core::ArtifactStore()};
  EXPECT_EQ(table_to_string(plain.run(s)), table_to_string(cold_rows));
}

TEST(ArtifactStore, StaleTempFilesNeverShadowAPut) {
  // Regression for the torn-write window: writers used to stage at the
  // shared name `<artifact>.tmp`, so a crashed writer's half-written file
  // could be renamed into place by a healthy writer's commit. Staging is
  // now per-writer unique; a stale .tmp must neither break a put nor leak
  // into the published payload.
  const core::ArtifactStore store(fresh_dir("store_staletmp"));
  const auto probe =
      store.put("dataset", "cafe01", [](std::ostream& os) { os << "probe"; });
  ASSERT_TRUE(probe.has_value());
  const std::string stale = *probe + ".tmp";
  {
    std::ofstream out(stale, std::ios::binary);
    out << "half-writ";
  }

  const auto path = store.put(
      "dataset", "cafe01", [](std::ostream& os) { os << "fresh payload"; });
  ASSERT_TRUE(path.has_value());
  const auto found = store.find("dataset", "cafe01");
  ASSERT_TRUE(found.has_value());
  std::ifstream in(*found, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "fresh payload");
  // The stale file is inert — never renamed over the artifact.
  EXPECT_TRUE(fs::exists(stale));
}

TEST(Engine, TruncatedDatasetPayloadDegradesToRecomputation) {
  core::Scenario s = small_scenario();
  s.faults.seed = 4;
  s.faults.lanz_drop = 0.4;
  s.faults.periodic_drop = 0.4;
  const std::string dir = fresh_dir("engine_truncated");

  core::Engine cold{core::ArtifactStore(dir)};
  const core::Campaign campaign = cold.campaign(s.campaign);
  const core::PreparedData truth = cold.prepare(s, campaign);
  ASSERT_FALSE(truth.quality.empty());

  // Truncate the cached dataset mid-payload, keeping the (now stale)
  // digest sidecar: exactly what a torn write would have produced.
  const auto path = cold.store().find("dataset", core::Engine::dataset_key(s));
  ASSERT_TRUE(path.has_value());
  {
    std::ifstream in(*path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str().substr(0, 40);
    std::ofstream out(*path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  const auto before = ArtifactCounters::now();
  core::Engine warm{core::ArtifactStore(dir)};
  const core::PreparedData recomputed = warm.prepare(s, campaign);
  const auto d = ArtifactCounters::now().delta(before);
  EXPECT_EQ(d.corrupt, 1);
  EXPECT_EQ(d.hit, 0);

  EXPECT_EQ(truth.quality.periodic_valid, recomputed.quality.periodic_valid);
  EXPECT_EQ(truth.quality.lanz_valid, recomputed.quality.lanz_valid);
  ASSERT_EQ(truth.split.train.size(), recomputed.split.train.size());
  for (std::size_t i = 0; i < truth.split.train.size(); ++i) {
    EXPECT_EQ(truth.split.train[i].features,
              recomputed.split.train[i].features);
    EXPECT_EQ(truth.split.train[i].constraints.window_max_valid,
              recomputed.split.train[i].constraints.window_max_valid);
  }
}

TEST(Engine, MaskedDatasetRoundTripsThroughStoreBitIdentically) {
  core::Scenario s = small_scenario();
  s.faults.seed = 8;
  s.faults.periodic_drop = 0.3;
  s.faults.lanz_drop = 0.3;
  const std::string dir = fresh_dir("engine_masked");

  core::Engine cold{core::ArtifactStore(dir)};
  const core::Campaign campaign = cold.campaign(s.campaign);
  const core::PreparedData written = cold.prepare(s, campaign);
  ASSERT_FALSE(written.quality.empty());

  const auto before = ArtifactCounters::now();
  core::Engine warm{core::ArtifactStore(dir)};
  const core::PreparedData loaded = warm.prepare(s, campaign);
  EXPECT_EQ(ArtifactCounters::now().delta(before).hit, 1);

  EXPECT_EQ(written.quality.periodic_valid, loaded.quality.periodic_valid);
  EXPECT_EQ(written.quality.lanz_valid, loaded.quality.lanz_valid);
  ASSERT_EQ(written.split.test.size(), loaded.split.test.size());
  for (std::size_t i = 0; i < written.split.test.size(); ++i) {
    EXPECT_EQ(written.split.test[i].features, loaded.split.test[i].features);
    EXPECT_EQ(written.split.test[i].target, loaded.split.test[i].target);
    EXPECT_EQ(written.split.test[i].constraints.sample_idx,
              loaded.split.test[i].constraints.sample_idx);
    EXPECT_EQ(written.split.test[i].constraints.window_max_valid,
              loaded.split.test[i].constraints.window_max_valid);
  }
}

TEST(Engine, SeverityZeroFaultsHitTheCleanCache) {
  // The acceptance bar for the faults subsystem: with every fault at
  // severity 0 the dataset key, the cached payload, and the evaluation are
  // byte-identical to a scenario with no faults block at all.
  const core::Scenario clean = small_scenario();
  core::Scenario zeroed = small_scenario();
  zeroed.faults.periodic_drop = 0.9;
  zeroed.faults.noise = 5.0;
  zeroed.faults.snmp_wrap_bits = 32;
  zeroed.faults.severity = 0.0;
  ASSERT_FALSE(zeroed.faults.enabled());
  ASSERT_EQ(core::Engine::dataset_key(zeroed),
            core::Engine::dataset_key(clean));

  const std::string dir = fresh_dir("engine_sev0");
  core::Engine cold{core::ArtifactStore(dir)};
  const auto clean_rows = cold.run(clean);

  // The severity-0 run is fully warm: same keys, same payload bytes.
  const auto before = ArtifactCounters::now();
  core::Engine warm{core::ArtifactStore(dir)};
  const auto zeroed_rows = warm.run(zeroed);
  const auto d = ArtifactCounters::now().delta(before);
  EXPECT_EQ(d.hit, 3);
  EXPECT_EQ(d.miss, 0);
  EXPECT_EQ(d.write, 0);
  EXPECT_EQ(table_to_string(clean_rows), table_to_string(zeroed_rows));
}

}  // namespace
}  // namespace fmnet
