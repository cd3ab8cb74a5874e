// Plan-store envelope suite (docs/MODEL.md §5d).
//
// The PlanCache contract under test: a stored blob loads back bit-exact
// under its key; any envelope damage — flipped payload bytes, truncation,
// a foreign format version, a blob renamed under the wrong key — is
// reported as a distinct miss reason instead of returning questionable
// bytes; an unusable directory fails loudly at construction. Plus the
// PlanWriter/PlanReader primitives and the plan_matches staleness
// classification that plan_io layers on top.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include "src/common/strutil.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/sim/arch.hpp"
#include "src/sim/plan_cache.hpp"
#include "src/sim/plan_io.hpp"

namespace kconv::sim {
namespace {

namespace fs = std::filesystem;

/// Fresh, empty directory under the system temp root for one test.
std::string fresh_dir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / ("kconv_plan_test_" + name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(PlanWriterReader, RoundTripsEveryFieldType) {
  PlanWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i32(-42);
  w.put_i64(-1234567890123456789ll);
  w.put_f64(3.25);
  w.put_str("plan cache");
  const std::string bytes = w.take();

  PlanReader r(bytes);
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xBEEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_i64(), -1234567890123456789ll);
  EXPECT_EQ(r.get_f64(), 3.25);
  EXPECT_EQ(r.get_str(), "plan cache");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(PlanWriterReader, UnderflowFlipsOkAndYieldsZeros) {
  PlanWriter w;
  w.put_u32(7);
  const std::string bytes = w.take();

  PlanReader r(bytes);
  EXPECT_EQ(r.get_u32(), 7u);
  EXPECT_EQ(r.get_u64(), 0u);  // past the end
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.at_end());
  EXPECT_EQ(r.get_u32(), 0u);  // stays failed
}

TEST(PlanChecksum, SensitiveToContentAndLength) {
  const u64 a = plan_checksum("hello plan");
  EXPECT_EQ(a, plan_checksum("hello plan"));
  EXPECT_NE(a, plan_checksum("hello plaN"));
  EXPECT_NE(a, plan_checksum("hello plan "));
  EXPECT_NE(plan_checksum(""), plan_checksum(std::string(1, '\0')));
}

TEST(PlanCacheStore, StoreThenLoadHitsBitExact) {
  PlanCache cache(fresh_dir("hit"));
  const std::string payload = "\x01\x02payload bytes\xFF";
  cache.store("kernel|shape|arch", payload);

  std::string out, why;
  EXPECT_TRUE(cache.load("kernel|shape|arch", out, &why));
  EXPECT_EQ(out, payload);
  EXPECT_EQ(why, "hit");
  EXPECT_EQ(cache.stores(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(PlanCacheStore, MissingKeyIsAMiss) {
  PlanCache cache(fresh_dir("miss"));
  std::string out, why;
  EXPECT_FALSE(cache.load("never stored", out, &why));
  EXPECT_EQ(why, "miss");
}

TEST(PlanCacheStore, SecondStoreReplacesTheFirst) {
  PlanCache cache(fresh_dir("replace"));
  cache.store("k", "old payload");
  cache.store("k", "new payload");
  std::string out;
  EXPECT_TRUE(cache.load("k", out));
  EXPECT_EQ(out, "new payload");
}

TEST(PlanCacheStore, FlippedPayloadByteIsRejectedAsCorrupt) {
  PlanCache cache(fresh_dir("corrupt"));
  cache.store("k", "payload under test");
  const std::string path = cache.path_for("k");

  std::string blob = read_file(path);
  blob[blob.size() - 3] ^= 0x40;  // damage the payload tail
  write_file(path, blob);

  std::string out, why;
  EXPECT_FALSE(cache.load("k", out, &why));
  EXPECT_EQ(why, "corrupt");
}

TEST(PlanCacheStore, TruncatedBlobIsRejectedAsCorrupt) {
  PlanCache cache(fresh_dir("truncate"));
  cache.store("k", "a payload long enough to truncate meaningfully");
  const std::string path = cache.path_for("k");

  std::string blob = read_file(path);
  write_file(path, blob.substr(0, blob.size() / 2));

  std::string out, why;
  EXPECT_FALSE(cache.load("k", out, &why));
  EXPECT_EQ(why, "corrupt");
}

TEST(PlanCacheStore, ForeignFormatVersionIsRejectedAsStale) {
  PlanCache cache(fresh_dir("version"));
  cache.store("k", "payload");
  const std::string path = cache.path_for("k");

  // The u32 format version sits right after the 8-byte magic.
  std::string blob = read_file(path);
  blob[8] = static_cast<char>(kPlanFormatVersion + 1);
  write_file(path, blob);

  std::string out, why;
  EXPECT_FALSE(cache.load("k", out, &why));
  EXPECT_EQ(why, "stale-version");
}

TEST(PlanCacheStore, BlobUnderTheWrongKeyIsRejectedAsStaleKey) {
  PlanCache cache(fresh_dir("wrongkey"));
  cache.store("key-a", "payload for a");

  // A hash collision (or a renamed file) would surface key-a's blob under
  // key-b's path; the envelope's embedded key string must catch it.
  fs::copy_file(cache.path_for("key-a"), cache.path_for("key-b"),
                fs::copy_options::overwrite_existing);

  std::string out, why;
  EXPECT_FALSE(cache.load("key-b", out, &why));
  EXPECT_EQ(why, "stale-key");
}

TEST(PlanCacheStore, GarbageFileIsRejectedAsCorrupt) {
  PlanCache cache(fresh_dir("garbage"));
  write_file(cache.path_for("k"), "this is not a plan envelope");
  std::string out, why;
  EXPECT_FALSE(cache.load("k", out, &why));
  EXPECT_EQ(why, "corrupt");
}

TEST(PlanCacheStore, RegularFilePathThrowsAtConstruction) {
  const std::string dir = fresh_dir("notadir");
  const std::string file = dir + "/occupied";
  write_file(file, "x");
  EXPECT_THROW(PlanCache{file}, Error);
}

TEST(PlanCacheStore, CreatesMissingDirectory) {
  const std::string base = fresh_dir("deep");
  PlanCache cache(base + "/a/b/c");
  cache.store("k", "payload");
  std::string out;
  EXPECT_TRUE(cache.load("k", out));
}

TEST(PlanMatches, ClassifiesEveryStalenessKind) {
  const Arch arch = kepler_k40m();
  LaunchPlan plan;
  plan.arch = arch_fingerprint(arch);
  plan.trace_level = static_cast<u8>(TraceLevel::Functional);
  plan.cfg.grid = Dim3{4, 2, 1};
  plan.cfg.block = Dim3{32, 2, 1};
  plan.cfg.shared_bytes = 1024;

  std::string why;
  EXPECT_TRUE(plan_matches(plan, arch, plan.cfg, TraceLevel::Functional, &why));

  EXPECT_FALSE(plan_matches(plan, kepler_k40m_4byte_banks(), plan.cfg,
                            TraceLevel::Functional, &why));
  EXPECT_EQ(why, "stale-arch");

  EXPECT_FALSE(plan_matches(plan, arch, plan.cfg, TraceLevel::Timing, &why));
  EXPECT_EQ(why, "stale-trace-level");

  LaunchConfig other = plan.cfg;
  other.grid.x = 5;
  EXPECT_FALSE(plan_matches(plan, arch, other, TraceLevel::Functional, &why));
  EXPECT_EQ(why, "stale-config");
}

TEST(PlanStoreKey, FoldsEveryLaunchDimension) {
  const Arch arch = kepler_k40m();
  LaunchConfig cfg;
  cfg.grid = Dim3{4, 2, 1};
  cfg.block = Dim3{32, 2, 1};
  cfg.shared_bytes = 512;
  const std::string base =
      plan_store_key("kern", arch, cfg, TraceLevel::Functional);
  EXPECT_EQ(base, plan_store_key("kern", arch, cfg, TraceLevel::Functional));

  LaunchConfig g = cfg;
  g.grid.y = 3;
  EXPECT_NE(base, plan_store_key("kern", arch, g, TraceLevel::Functional));
  LaunchConfig b = cfg;
  b.block.x = 64;
  EXPECT_NE(base, plan_store_key("kern", arch, b, TraceLevel::Functional));
  LaunchConfig s = cfg;
  s.shared_bytes = 1024;
  EXPECT_NE(base, plan_store_key("kern", arch, s, TraceLevel::Functional));
  EXPECT_NE(base, plan_store_key("kern2", arch, cfg, TraceLevel::Functional));
  EXPECT_NE(base, plan_store_key("kern", arch, cfg, TraceLevel::Timing));
  EXPECT_NE(base, plan_store_key("kern", kepler_k40m_4byte_banks(), cfg,
                                 TraceLevel::Functional));
}

// --- byte budget + LRU eviction ---------------------------------------------
//
// Tests pin file mtimes explicitly: the sweep ages entries by mtime, and
// store()s inside one test can land within the filesystem's timestamp
// resolution.

void age_blob(PlanCache& cache, const std::string& key,
              std::chrono::minutes ago) {
  fs::last_write_time(cache.path_for(key),
                      fs::file_time_type::clock::now() - ago);
}

TEST(PlanCacheEvict, UnboundedCacheNeverEvicts) {
  PlanCache cache(fresh_dir("evict_unbounded"));
  for (int i = 0; i < 8; ++i) cache.store(strf("k%d", i), std::string(1 << 12, 'p'));
  EXPECT_EQ(cache.evictions(), 0u);
  std::string out;
  EXPECT_TRUE(cache.load("k0", out));
}

TEST(PlanCacheEvict, OverBudgetStoreEvictsLeastRecentlyUsed) {
  PlanCache cache(fresh_dir("evict_lru"));
  const std::string payload(1000, 'p');
  cache.store("a", payload);
  cache.store("b", payload);
  age_blob(cache, "a", std::chrono::minutes(20));
  age_blob(cache, "b", std::chrono::minutes(10));
  // Room for exactly two blobs: the third store must push one out.
  cache.set_byte_budget(cache.disk_bytes() + 16);
  cache.store("c", payload);

  std::string out, why;
  EXPECT_FALSE(cache.load("a", out, &why));  // oldest → evicted
  EXPECT_EQ(why, "miss");
  EXPECT_TRUE(cache.load("b", out));
  EXPECT_TRUE(cache.load("c", out));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.disk_bytes(), cache.byte_budget());
}

TEST(PlanCacheEvict, JustStoredKeySurvivesEvenWhenAloneOverBudget) {
  PlanCache cache(fresh_dir("evict_keep"), /*byte_budget=*/64);
  cache.store("huge", std::string(4096, 'x'));
  std::string out;
  EXPECT_TRUE(cache.load("huge", out));  // never evict the newcomer
}

TEST(PlanCacheEvict, HitRefreshesRecencyUnderBudget) {
  PlanCache cache(fresh_dir("evict_touch"));
  const std::string payload(1000, 'p');
  cache.store("a", payload);
  cache.store("b", payload);
  age_blob(cache, "a", std::chrono::minutes(20));
  age_blob(cache, "b", std::chrono::minutes(10));
  cache.set_byte_budget(cache.disk_bytes() + 16);
  std::string out;
  EXPECT_TRUE(cache.load("a", out));  // budgeted hit touches "a"
  cache.store("c", payload);          // now "b" is the coldest

  std::string why;
  EXPECT_TRUE(cache.load("a", out));
  EXPECT_FALSE(cache.load("b", out, &why));
  EXPECT_EQ(why, "miss");
  EXPECT_TRUE(cache.load("c", out));
}

TEST(PlanCacheEvict, TapeSidecarLeavesWithItsPlan) {
  PlanCache cache(fresh_dir("evict_pair"));
  const std::string payload(1000, 'p');
  cache.store("plan", payload);
  cache.store("plan|tapes", payload);
  cache.store("other", payload);
  age_blob(cache, "plan", std::chrono::minutes(30));
  age_blob(cache, "plan|tapes", std::chrono::minutes(5));
  age_blob(cache, "other", std::chrono::minutes(10));
  // The pair is aged by its NEWEST member (5 min), so "other" (10 min) is
  // the eviction candidate once the next store overflows the budget (which
  // holds the current three blobs, plus slack smaller than one blob).
  cache.set_byte_budget(cache.disk_bytes() + 16);
  cache.store("filler", payload);

  std::string out, why;
  EXPECT_TRUE(cache.load("plan", out));
  EXPECT_TRUE(cache.load("plan|tapes", out));
  EXPECT_FALSE(cache.load("other", out, &why));
  EXPECT_EQ(why, "miss");

  // Now make the pair the coldest: both files leave together.
  age_blob(cache, "plan", std::chrono::minutes(30));
  age_blob(cache, "plan|tapes", std::chrono::minutes(30));
  const u64 before = cache.evictions();
  cache.store("filler2", payload);
  EXPECT_FALSE(cache.load("plan", out, &why));
  EXPECT_EQ(why, "miss");
  EXPECT_FALSE(cache.load("plan|tapes", out, &why));
  EXPECT_EQ(why, "miss");
  EXPECT_EQ(cache.evictions(), before + 2);  // blob + sidecar
}

TEST(PlanCacheEvict, EvictedKeyRehealsOnRestore) {
  PlanCache cache(fresh_dir("evict_reheal"));
  const std::string payload(1000, 'p');
  cache.store("a", payload);
  cache.store("b", payload);
  age_blob(cache, "a", std::chrono::minutes(20));
  age_blob(cache, "b", std::chrono::minutes(10));
  cache.set_byte_budget(cache.disk_bytes() + 16);
  cache.store("c", payload);
  std::string out, why;
  ASSERT_FALSE(cache.load("a", out, &why));

  // An evicted key is an ordinary miss: re-storing it (the re-capture the
  // launch layer would do) brings it back bit-exact.
  cache.store("a", "recaptured payload");
  EXPECT_TRUE(cache.load("a", out, &why));
  EXPECT_EQ(out, "recaptured payload");
  EXPECT_EQ(why, "hit");
  EXPECT_LE(cache.disk_bytes(), cache.byte_budget());
}

TEST(PlanPayload, CorruptPayloadBytesAreRejectedNotMisparsed) {
  LaunchPlan out;
  std::string why;
  EXPECT_FALSE(deserialize_plan("random junk that is not a plan", out, &why));
  EXPECT_EQ(why, "corrupt-payload");
  EXPECT_FALSE(deserialize_plan("", out, &why));
  EXPECT_EQ(why, "corrupt-payload");
}

TEST(PlanPayload, TransactionWithoutLanesIsRejected) {
  // Replay's segment walk reads each transaction's first lane, so a
  // structurally valid plan must name at least one.
  LaunchPlan plan;
  plan.cfg.grid = {2, 1, 1};
  plan.cfg.block = {2, 1, 1};
  PlanClass pc;
  pc.trace.txs = {{Op::LoadGlobal, 0, 2}, {Op::LoadConst, 2, 0}};
  pc.trace.tx_lanes = {0, 1};
  pc.trace.lane_hash = {1, 2};
  pc.trace.lane_events = {1, 1};
  plan.classes.push_back(pc);
  LaunchPlan out;
  std::string why;
  EXPECT_FALSE(deserialize_plan(serialize_plan(plan), out, &why));
  EXPECT_EQ(why, "corrupt-payload");
  plan.classes[0].trace.txs.pop_back();
  EXPECT_TRUE(deserialize_plan(serialize_plan(plan), out, &why)) << why;
}

}  // namespace
}  // namespace kconv::sim
