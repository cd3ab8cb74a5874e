#include "src/sim/constmem.hpp"

#include "src/common/error.hpp"

namespace kconv::sim {

void analyze_const(std::span<const Access> lanes, u32 line_bytes,
                   ConstCost& cost) {
  KCONV_ASSERT(line_bytes > 0);
  cost.lines_touched = 0;
  // A broadcast (every active lane on one address) is one request on one
  // line; answer it without the per-lane walk below.
  const Access* first = nullptr;
  bool broadcast = true;
  for (const Access& a : lanes) {
    if (a.bytes == 0) continue;
    if (first == nullptr) {
      first = &a;
    } else if (a.addr != first->addr) {
      broadcast = false;
      break;
    }
  }
  if (broadcast) {
    if (first != nullptr) {
      cost.lines_touched = 1;
      cost.line_addrs[0] = (first->addr / line_bytes) * line_bytes;
    }
    cost.requests = 1;
    return;
  }
  u64 addrs[32];
  u32 n_addrs = 0;
  for (const Access& a : lanes) {
    if (a.bytes == 0) continue;  // predicated-off lane
    bool seen = false;
    for (u32 i = 0; i < n_addrs; ++i) {
      if (addrs[i] == a.addr) {
        seen = true;
        break;
      }
    }
    if (!seen && n_addrs < 32) addrs[n_addrs++] = a.addr;

    const u64 line = (a.addr / line_bytes) * line_bytes;
    bool line_seen = false;
    for (u32 i = 0; i < cost.lines_touched; ++i) {
      if (cost.line_addrs[i] == line) {
        line_seen = true;
        break;
      }
    }
    if (!line_seen && cost.lines_touched < 32) {
      cost.line_addrs[cost.lines_touched++] = line;
    }
  }
  cost.requests = n_addrs == 0 ? 1 : n_addrs;
}

}  // namespace kconv::sim
