// Counter tables (docs/MODEL.md §1). KernelStats is a plain bag of u64
// counters that declares its fields once more in a table next to the
// struct, with every counter's name and replay class. Merging, plan I/O,
// the replay split, the cross-mode identity check and the JSON writer loop
// over that table instead of naming fields.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "src/common/strutil.hpp"
#include "src/common/types.hpp"

namespace kconv {

/// How a replayed block gets a counter, which decides the launch modes that
/// must agree on it.
enum class CounterClass : u8 {
  Compute,     ///< recounted from replayed lanes
  Invariant,   ///< translation-invariant: added from the class trace
  AddrDep,     ///< recomputed per block; analytic launches approximate it
  Warmth,      ///< cache warmth: exact only under one schedule
  Instrument,  ///< analyzer memoization: never compared across modes
  Blocks,      ///< blocks_executed: counted per block by the runner
};

template <typename S>
struct Counter {
  const char* name;
  u64 S::* member;
  CounterClass cls;
  bool max = false;  ///< merges by max instead of sum
};

template <typename S, std::size_t N>
using CounterTable = std::array<Counter<S>, N>;

/// Strictness of a cross-mode comparison: Exact compares everything but
/// instrumentation, Schedule also drops cache warmth, Analytic also drops
/// the address-dependent counters.
enum class StatsLevel : u8 { Exact, Schedule, Analytic };

constexpr bool compared_at(CounterClass cls, StatsLevel level) {
  switch (cls) {
    case CounterClass::Instrument: return false;
    case CounterClass::Warmth: return level == StatsLevel::Exact;
    case CounterClass::AddrDep: return level != StatsLevel::Analytic;
    default: return true;
  }
}

/// The classes a replayed block recomputes against its own addresses: a
/// trace's `addr_dep` slice holds exactly these.
constexpr bool address_dependent(CounterClass cls) {
  return cls == CounterClass::AddrDep || cls == CounterClass::Warmth;
}

/// True when `table` names every u64 field of S exactly once.
template <typename S, std::size_t N>
constexpr bool covers_every_field(const CounterTable<S, N>& table) {
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = i + 1; j < N; ++j) {
      if (table[i].member == table[j].member) return false;
    }
  }
  return sizeof(S) == N * sizeof(u64);
}

/// `+=` runs per replayed block: the loop is fully unrolled so every member
/// pointer folds to a constant offset, as fast as the adds written out.
template <typename S, std::size_t N>
void add_counters(const CounterTable<S, N>& table, S& a, const S& b) {
#pragma GCC unroll 32
  for (const Counter<S>& c : table) {
    u64& x = a.*c.member;
    const u64 y = b.*c.member;
    x = c.max ? (x > y ? x : y) : x + y;
  }
}

/// Splits a class representative's counters the way replay charges them:
/// `invariant` is added for every replayed block, `compute` is recounted
/// (tape blocks add it) and `addr_dep` (address-dependent and cache-warmth)
/// is recomputed per block; only analytic launches charge it. The runner
/// charges instrumentation and block counts live, so they land in none.
template <typename S, std::size_t N>
void split_by_class(const CounterTable<S, N>& table, const S& local,
                    S& invariant, S& compute, S& addr_dep) {
  invariant = compute = addr_dep = S{};
  for (const Counter<S>& c : table) {
    if (c.cls == CounterClass::Invariant) invariant.*c.member = local.*c.member;
    if (c.cls == CounterClass::Compute) compute.*c.member = local.*c.member;
    if (address_dependent(c.cls)) addr_dep.*c.member = local.*c.member;
  }
}

/// One "field: <a_name>=X <b_name>=Y" line per counter `level` compares
/// that differs between `a` and `b`.
template <typename S, std::size_t N>
std::vector<std::string> counter_mismatches(const CounterTable<S, N>& table,
                                            const S& a, const S& b,
                                            StatsLevel level,
                                            const char* a_name,
                                            const char* b_name) {
  std::vector<std::string> out;
  for (const Counter<S>& c : table) {
    if (compared_at(c.cls, level) && a.*c.member != b.*c.member) {
      out.push_back(strf("%s: %s=%llu %s=%llu", c.name, a_name,
                         static_cast<unsigned long long>(a.*c.member), b_name,
                         static_cast<unsigned long long>(b.*c.member)));
    }
  }
  return out;
}

/// Every counter of `table` as `"name": value`, in table order, joined by
/// `sep`: the one JSON spelling of a counter block.
template <typename S, std::size_t N>
std::string counters_json(const CounterTable<S, N>& table, const S& s,
                          const std::string& sep) {
  std::string out;
  for (const Counter<S>& c : table) {
    if (!out.empty()) out += sep;
    out += strf("\"%s\": %llu", c.name,
                static_cast<unsigned long long>(s.*c.member));
  }
  return out;
}

}  // namespace kconv
