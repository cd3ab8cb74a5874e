// Plan-store envelope suite (docs/MODEL.md §5d).
//
// The PlanCache contract under test: a stored blob loads back bit-exact
// under its key; any envelope damage — flipped payload bytes, truncation,
// a foreign format version, a blob renamed under the wrong key — is
// reported as a distinct miss reason instead of returning questionable
// bytes; an unusable directory fails loudly at construction; a load never
// writes the directory and a store never removes another key's blob. Plus the
// PlanWriter/PlanReader primitives and the plan_matches staleness
// classification that plan_io layers on top, and the payload parser's
// answer to damaged bytes: reject or round-trip, never crash.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/strutil.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/sim/arch.hpp"
#include "src/sim/device.hpp"
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

TEST(PlanCacheStore, StoreNeverRemovesOtherKeys) {
  PlanCache cache(fresh_dir("store_keeps_keys"));
  const auto payload = [](int i) {
    return std::string(1 << 12, static_cast<char>('a' + i));
  };
  for (int i = 0; i < 8; ++i) cache.store(strf("k%d", i), payload(i));
  for (int i = 0; i < 8; ++i) {
    std::string out;
    EXPECT_TRUE(cache.load(strf("k%d", i), out)) << "k" << i;
    EXPECT_EQ(out, payload(i)) << "k" << i;
  }
}

/// Every directory entry's name, size and mtime, for before/after checks.
std::map<std::string, std::pair<u64, fs::file_time_type>> snapshot(
    const std::string& dir) {
  std::map<std::string, std::pair<u64, fs::file_time_type>> out;
  for (const auto& de : fs::directory_iterator(dir)) {
    out[de.path().filename().string()] = {de.file_size(),
                                          de.last_write_time()};
  }
  return out;
}

TEST(PlanCacheStore, LoadsNeverWriteTheDirectory) {
  // A store may be shared by several readers; a load is read-only whatever
  // it finds: a hit, a miss or a rejected blob.
  const std::string dir = fresh_dir("loads_read_only");
  PlanCache cache(dir);
  cache.store("good", "payload");
  cache.store("bad", "payload to damage");
  std::string blob = read_file(cache.path_for("bad"));
  blob.back() ^= 0x01;
  write_file(cache.path_for("bad"), blob);
  // Age every blob so a touch on load could not hide in the same tick.
  const auto old = fs::file_time_type::clock::now() - std::chrono::hours(1);
  for (const auto& de : fs::directory_iterator(dir)) {
    fs::last_write_time(de.path(), old);
  }
  const auto before = snapshot(dir);

  std::string out, why;
  EXPECT_TRUE(cache.load("good", out, &why));
  std::string view_blob;
  std::string_view view;
  EXPECT_TRUE(cache.load_view("good", view_blob, view, &why));
  EXPECT_FALSE(cache.load("bad", out, &why));
  EXPECT_EQ(why, "corrupt");
  EXPECT_FALSE(cache.load("absent", out, &why));
  EXPECT_EQ(why, "miss");
  EXPECT_EQ(snapshot(dir), before);
}

TEST(PlanCacheStore, DiskBytesSumsOneBlobPerKey) {
  const std::string dir = fresh_dir("disk_bytes");
  PlanCache cache(dir);
  EXPECT_EQ(cache.disk_bytes(), 0u);
  cache.store("a", std::string(100, 'a'));
  cache.store("b", std::string(300, 'b'));
  cache.store("a", std::string(50, 'A'));  // replaces, never duplicates
  write_file(dir + "/notes.txt", "not a plan blob");

  u64 blob_bytes = 0;
  std::size_t blobs = 0;
  for (const auto& de : fs::directory_iterator(dir)) {
    const std::string name = de.path().filename().string();
    // store() renames its temp file into place; none may be left behind.
    EXPECT_EQ(name.find(".tmp-"), std::string::npos) << name;
    if (de.path().extension() != ".kplan") continue;
    ++blobs;
    blob_bytes += de.file_size();
  }
  EXPECT_EQ(blobs, 2u);
  EXPECT_EQ(cache.disk_bytes(), blob_bytes);
  EXPECT_EQ(blob_bytes, fs::file_size(cache.path_for("a")) +
                            fs::file_size(cache.path_for("b")));
}

TEST(PlanCacheStore, CountersCountEveryLoadAndStore) {
  PlanCache cache(fresh_dir("counters"));
  cache.store("k", "first");
  cache.store("k", "second");  // a replace is a store too
  cache.store("j", "other");
  write_file(cache.path_for("junk"), "not an envelope");

  std::string out, blob;
  std::string_view view;
  EXPECT_TRUE(cache.load("k", out));
  EXPECT_TRUE(cache.load_view("j", blob, view));
  EXPECT_FALSE(cache.load("absent", out));
  EXPECT_FALSE(cache.load_view("junk", blob, view));
  EXPECT_EQ(cache.stores(), 3u);
  EXPECT_EQ(cache.loads(), 4u);  // misses and rejects are loads
  EXPECT_EQ(cache.hits(), 2u);   // only validated payloads are hits
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

TEST(PlanPayload, CorruptPayloadBytesAreRejectedNotMisparsed) {
  LaunchPlan out;
  std::string why;
  EXPECT_FALSE(deserialize_plan("random junk that is not a plan", out, &why));
  EXPECT_EQ(why, "corrupt-payload");
  EXPECT_FALSE(deserialize_plan("", out, &why));
  EXPECT_EQ(why, "corrupt-payload");
}

TEST(PlanPayload, TransactionMaskMustNameLanesOfTheBlock) {
  // Replay's segment walk reads the lanes a transaction's mask names, so a
  // structurally valid plan names at least one lane and none past the
  // block's last. The block is one full warp and a partial one of 8 lanes.
  LaunchPlan plan;
  plan.cfg.grid = {2, 1, 1};
  plan.cfg.block = {40, 1, 1};
  auto trace = std::make_shared<BlockTrace>();
  trace->txs = {{Op::LoadGlobal, 0, ~0u}, {Op::LoadConst, 32, 0xFF}};
  trace->lane_hash.assign(40, 1);
  trace->lane_events.assign(40, 1);
  plan.classes.push_back({0, trace, nullptr});
  LaunchPlan out;
  std::string why;
  EXPECT_TRUE(deserialize_plan(serialize_plan(plan), out, &why)) << why;
  ASSERT_EQ(out.classes.size(), 1u);
  EXPECT_EQ(out.classes[0].trace->txs[1].lo, 32u);
  EXPECT_EQ(out.classes[0].trace->txs[1].mask, 0xFFu);

  trace->txs[1].mask = 0;  // names no lane
  EXPECT_FALSE(deserialize_plan(serialize_plan(plan), out, &why));
  EXPECT_EQ(why, "corrupt-payload");
  trace->txs[1].mask = 0x1FF;  // bit 8 is lane 40
  EXPECT_FALSE(deserialize_plan(serialize_plan(plan), out, &why));
  EXPECT_EQ(why, "corrupt-payload");
}

TEST(PlanPayload, CapturedTimingPayloadSurvivesTruncationAndBitFlips) {
  // A real plan payload, captured by a replaying Timing launch of the
  // special kernel (3 x 6 blocks of 64 lanes).
  PlanCache plans(fresh_dir("payload_sweep"));
  Rng rng(3);
  tensor::Tensor img = tensor::Tensor::image(1, 24, 24);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 1, 5);
  flt.fill_random(rng);
  kernels::SpecialConvConfig cfg;
  cfg.block_w = 16;
  cfg.block_h = 4;
  LaunchOptions opt;
  opt.replay = true;
  opt.plan_cache = &plans;
  Device dev(kepler_k40m());
  (void)kernels::special_conv(dev, img, flt, cfg, opt);

  std::string payload;
  for (const auto& e : fs::directory_iterator(plans.dir())) {
    const std::string blob = read_file(e.path().string());
    PlanReader r(blob);
    char magic[8];
    ASSERT_TRUE(r.raw(magic, sizeof(magic)));
    ASSERT_EQ(r.get_u32(), kPlanFormatVersion);
    std::string why;
    ASSERT_TRUE(plans.load(r.get_str(), payload, &why)) << why;
  }
  LaunchPlan plan;
  std::string why;
  ASSERT_TRUE(deserialize_plan(payload, plan, &why)) << why;
  ASSERT_FALSE(plan.classes.empty());
  ASSERT_EQ(plan.trace_level, static_cast<u8>(TraceLevel::Timing));

  // The class count is fixed up front, so no proper prefix is a plan.
  for (std::size_t n = 0; n < payload.size(); ++n) {
    LaunchPlan out;
    ASSERT_FALSE(deserialize_plan(std::string_view(payload).substr(0, n), out,
                                  &why))
        << "prefix " << n;
    ASSERT_EQ(why, "corrupt-payload") << "prefix " << n;
  }
  // A flipped bit is rejected, or it parses into a plan that serializes
  // back to exactly the flipped bytes: nothing is read but not kept.
  Rng flips(0x5eed);
  std::string flipped = payload;
  for (int i = 0; i < 2048; ++i) {
    const std::size_t byte = flips.below(payload.size());
    const char bit = static_cast<char>(1u << flips.below(8));
    flipped[byte] ^= bit;
    LaunchPlan out;
    if (deserialize_plan(flipped, out, &why)) {
      ASSERT_EQ(serialize_plan(out), flipped) << "byte " << byte;
    } else {
      ASSERT_EQ(why, "corrupt-payload") << "byte " << byte;
    }
    flipped[byte] ^= bit;
  }
}

/// The interpreter's side of a loaded tape: a global/constant access it
/// dereferences lies inside its origin's span (enqueue_tape bounds-checks
/// each block's spans, not its entries), and shared loads, which it runs
/// masked or not, stay inside the block's shared memory.
bool interpreter_safe(const FuncTape& tape, u32 shared_bytes) {
  for (const LaneTape& lt : tape.lanes) {
    for (const TapeEntry& e : lt.entries) {
      const bool masked = (e.flags & kTapeMasked) != 0;
      const i64 end = e.rel + 4ll * e.width;
      if (e.op == TapeOp::LoadSm &&
          (e.rel < 0 || end > static_cast<i64>(shared_bytes))) {
        return false;
      }
      if ((e.op == TapeOp::LoadGm || e.op == TapeOp::LoadConst ||
           e.op == TapeOp::StoreGm) &&
          !masked) {
        const FuncTape::OriginSpan& sp = tape.spans[e.a];
        if (!sp.used || e.rel < sp.min_rel || end > sp.max_rel_end ||
            e.width == 0 || e.width > 32 ||
            (sp.widths & (1u << (e.width - 1))) == 0 ||
            (e.op == TapeOp::StoreGm && !sp.has_store)) {
          return false;
        }
      }
    }
  }
  return true;
}

TEST(PlanPayload, CapturedTapeSidecarSurvivesTruncationAndBitFlips) {
  // A real sidecar, stored by a replaying Functional launch of the special
  // kernel over 18 blocks whose interior class spans several blocks.
  PlanCache plans(fresh_dir("sidecar_sweep"));
  Rng rng(5);
  tensor::Tensor img = tensor::Tensor::image(1, 20, 36);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(2, 1, 3);
  flt.fill_random(rng);
  kernels::SpecialConvConfig cfg;
  cfg.block_w = 8;
  cfg.block_h = 3;
  LaunchOptions opt;
  opt.trace = TraceLevel::Functional;
  opt.replay = true;
  opt.plan_cache = &plans;
  Device dev(kepler_k40m());
  const kernels::KernelRun run = kernels::special_conv(dev, img, flt, cfg, opt);
  ASSERT_GE(run.launch.blocks_total, 16u);

  std::string payload, sidecar;
  for (const auto& e : fs::directory_iterator(plans.dir())) {
    const std::string blob = read_file(e.path().string());
    PlanReader r(blob);
    char magic[8];
    ASSERT_TRUE(r.raw(magic, sizeof(magic)));
    ASSERT_EQ(r.get_u32(), kPlanFormatVersion);
    const std::string key = r.get_str();
    std::string why;
    ASSERT_TRUE(plans.load(key, key.ends_with("|tapes") ? sidecar : payload,
                           &why))
        << why;
  }
  ASSERT_FALSE(payload.empty());
  ASSERT_FALSE(sidecar.empty());
  std::string why;
  LaunchPlan plan;
  ASSERT_TRUE(deserialize_plan(payload, plan, &why)) << why;
  ASSERT_TRUE(deserialize_tapes(sidecar, plan, &why)) << why;
  ASSERT_NE(serialize_tapes(plan), "");

  // Each input fails as a whole, leaving no tape behind, or loads tapes
  // that reload from their own serialization and that the interpreter can
  // run without leaving its buffers.
  const auto check = [&](std::string_view bytes, const std::string& what) {
    LaunchPlan p;
    ASSERT_TRUE(deserialize_plan(payload, p, &why)) << why;
    if (!deserialize_tapes(bytes, p, &why)) {
      ASSERT_TRUE(why == "corrupt-tapes" || why == "stale-tapes")
          << what << ": " << why;
      for (const PlanClass& pc : p.classes) {
        ASSERT_EQ(pc.tape, nullptr) << what;
      }
      return;
    }
    LaunchPlan again;
    ASSERT_TRUE(deserialize_plan(payload, again, &why)) << why;
    ASSERT_TRUE(deserialize_tapes(serialize_tapes(p), again, &why))
        << what << ": " << why;
    for (const PlanClass& pc : p.classes) {
      if (pc.tape == nullptr) continue;
      ASSERT_EQ(pc.tape->lanes.size(), p.cfg.block.count()) << what;
      ASSERT_TRUE(interpreter_safe(*pc.tape, p.cfg.shared_bytes)) << what;
    }
  };
  for (std::size_t n = 0; n < sidecar.size(); ++n) {
    check(std::string_view(sidecar).substr(0, n), "prefix " +
                                                      std::to_string(n));
  }
  Rng flips(0x7a9e);
  std::string flipped = sidecar;
  for (int i = 0; i < 2048; ++i) {
    const std::size_t byte = flips.below(sidecar.size());
    const char bit = static_cast<char>(1u << flips.below(8));
    flipped[byte] ^= bit;
    check(flipped, "byte " + std::to_string(byte));
    flipped[byte] ^= bit;
  }
}

}  // namespace
}  // namespace kconv::sim
