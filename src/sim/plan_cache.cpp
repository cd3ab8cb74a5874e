#include "src/sim/plan_cache.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "src/common/error.hpp"
#include "src/common/strutil.hpp"

namespace kconv::sim {

namespace fs = std::filesystem;

namespace {

constexpr char kPlanMagic[8] = {'K', 'C', 'N', 'V', 'P', 'L', 'N', '\n'};

u64 key_hash(std::string_view key) {
  u64 h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<u8>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Reads a whole file; empty-with-false when it does not exist or errors.
/// Sized up front and read in one call — plan blobs run to tens of
/// megabytes and the chunked append-loop's extra copy was measurable on
/// every warm launch.
bool slurp(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  long size = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    std::fclose(f);
    return false;
  }
  std::string data(static_cast<std::size_t>(size), '\0');
  const bool ok =
      std::fread(data.data(), 1, data.size(), f) == data.size() &&
      std::ferror(f) == 0;
  std::fclose(f);
  if (ok) out = std::move(data);
  return ok;
}

u64 process_tag() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<u64>(::getpid());
#else
  return 0;
#endif
}

}  // namespace

u64 plan_checksum(std::string_view bytes) {
  u64 h = 1469598103934665603ull;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    u64 w;
    std::memcpy(&w, bytes.data() + i, 8);
    h ^= w;
    h *= 1099511628211ull;
  }
  u64 tail = 0;
  std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  h ^= tail;
  h *= 1099511628211ull;
  h ^= static_cast<u64>(bytes.size());
  h *= 1099511628211ull;
  return h;
}

PlanCache::PlanCache(std::string dir) : dir_(std::move(dir)) {
  KCONV_CHECK(!dir_.empty(), "plan cache directory path is empty");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  KCONV_CHECK(!ec && fs::is_directory(dir_, ec),
              strf("plan cache path '%s' is not a usable directory",
                   dir_.c_str()));
  // Probe writability (and implicitly readability) once, up front: a launch
  // deep in an autotune sweep must not be the first thing to find out the
  // directory is read-only.
  const std::string probe =
      dir_ + strf("/.probe-%llx",
                  static_cast<unsigned long long>(process_tag()));
  std::FILE* f = std::fopen(probe.c_str(), "wb");
  KCONV_CHECK(f != nullptr,
              strf("plan cache directory '%s' is not writable", dir_.c_str()));
  std::fclose(f);
  fs::remove(probe, ec);
}

std::string PlanCache::path_for(const std::string& key) const {
  return dir_ + strf("/%016llx.kplan",
                     static_cast<unsigned long long>(key_hash(key)));
}

bool PlanCache::load(const std::string& key, std::string& payload,
                     std::string* why) {
  std::string blob;
  std::string_view view;
  if (!load_view(key, blob, view, why)) return false;
  payload.assign(view);
  return true;
}

bool PlanCache::load_view(const std::string& key, std::string& blob,
                          std::string_view& payload, std::string* why) {
  ++loads_;
  const auto fail = [&](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (!slurp(path_for(key), blob)) return fail("miss");
  PlanReader r(blob);
  char magic[8];
  if (!r.raw(magic, 8) || std::memcmp(magic, kPlanMagic, 8) != 0) {
    return fail("corrupt");
  }
  const u32 version = r.get_u32();
  if (!r.ok()) return fail("corrupt");
  if (version != kPlanFormatVersion) return fail("stale-version");
  const std::string stored_key = r.get_str();
  if (!r.ok()) return fail("corrupt");
  // A hash-named file holding a different key means either a (vanishingly
  // unlikely) hash collision or a blob copied/renamed across stores; both
  // must re-capture rather than replay a foreign plan.
  if (stored_key != key) return fail("stale-key");
  const u64 len = r.get_u64();
  const u64 sum = r.get_u64();
  if (!r.ok() || len != r.remaining()) return fail("corrupt");
  std::string_view body(blob.data() + (blob.size() - len), len);
  if (plan_checksum(body) != sum) return fail("corrupt");
  payload = body;
  ++hits_;
  if (why != nullptr) *why = "hit";
  return true;
}

u64 PlanCache::disk_bytes() const {
  u64 total = 0;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    if (de.path().extension() != ".kplan") continue;
    std::error_code fec;
    const u64 sz = static_cast<u64>(de.file_size(fec));
    if (!fec) total += sz;
  }
  return total;
}

void PlanCache::store(const std::string& key, std::string_view payload) {
  PlanWriter w;
  w.raw(kPlanMagic, 8);
  w.put_u32(kPlanFormatVersion);
  w.put_str(key);
  w.put_u64(payload.size());
  w.put_u64(plan_checksum(payload));
  w.raw(payload.data(), payload.size());

  // Unique temp name per process + store call: concurrent writers race only
  // on the final atomic rename, last-done-wins with both blobs complete.
  static std::atomic<u64> seq{0};
  const std::string path = path_for(key);
  const std::string tmp =
      path + strf(".tmp-%llx-%llx",
                  static_cast<unsigned long long>(process_tag()),
                  static_cast<unsigned long long>(
                      seq.fetch_add(1, std::memory_order_relaxed)));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  KCONV_CHECK(f != nullptr, strf("cannot create plan file in '%s'",
                                 dir_.c_str()));
  const std::string& blob = w.buf();
  const bool wrote = std::fwrite(blob.data(), 1, blob.size(), f) ==
                     blob.size();
  const bool flushed = std::fclose(f) == 0;
  if (!wrote || !flushed) {
    std::error_code ec;
    fs::remove(tmp, ec);
    KCONV_CHECK(false, strf("short write persisting plan to '%s'",
                            tmp.c_str()));
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    KCONV_CHECK(false, strf("cannot move plan into place at '%s'",
                            path.c_str()));
  }
  ++stores_;
}

}  // namespace kconv::sim
