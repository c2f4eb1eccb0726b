#include "common/fault.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace hodlrx {

namespace fault {

namespace {

constexpr int kNumSites = static_cast<int>(Site::kNumSites);

const char* const kSiteNames[kNumSites] = {"svd.sweeps", "aca.stall",
                                           "workspace.alloc"};

std::atomic<std::uint64_t> g_occurrence[kNumSites];
std::atomic<std::uint64_t> g_injected[kNumSites];
std::atomic<std::uint64_t> g_recovered[kNumSites];

/// The spec for `site` in HODLRX_FAULT ("site[:nth]" tokens, comma
/// separated): 0 when the site is not armed, otherwise the 1-based
/// occurrence to fire on (a missing or non-positive :nth means 1).
std::uint64_t armed_nth(Site site) {
  const char* env = std::getenv("HODLRX_FAULT");
  if (env == nullptr || *env == '\0') return 0;
  const char* name = kSiteNames[static_cast<int>(site)];
  const std::size_t len = std::strlen(name);
  const char* p = env;
  while (*p != '\0') {
    while (*p == ',' || *p == ' ') ++p;
    if (*p == '\0') break;
    const char* end = p;
    while (*end != '\0' && *end != ',') ++end;
    if (std::strncmp(p, name, len) == 0) {
      const char* rest = p + len;
      while (rest < end && *rest == ' ') ++rest;
      if (rest == end) return 1;
      if (*rest == ':') {
        char* num_end = nullptr;
        const long long v = std::strtoll(rest + 1, &num_end, 10);
        return v > 0 ? static_cast<std::uint64_t>(v) : 1;
      }
      // Prefix of a longer token: not this site, keep scanning.
    }
    p = end;
  }
  return 0;
}

}  // namespace

const char* site_name(Site site) {
  return kSiteNames[static_cast<int>(site)];
}

bool should_fire(Site site) {
  const std::uint64_t nth = armed_nth(site);
  if (nth == 0) return false;
  const int i = static_cast<int>(site);
  const std::uint64_t occurrence =
      g_occurrence[i].fetch_add(1, std::memory_order_relaxed) + 1;
  if (occurrence != nth) return false;
  g_injected[i].fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace fault

namespace fault_stats {

std::uint64_t injected() {
  std::uint64_t total = 0;
  for (const auto& c : fault::g_injected)
    total += c.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t recovered() {
  std::uint64_t total = 0;
  for (const auto& c : fault::g_recovered)
    total += c.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t injected(fault::Site site) {
  return fault::g_injected[static_cast<int>(site)].load(
      std::memory_order_relaxed);
}

std::uint64_t recovered(fault::Site site) {
  return fault::g_recovered[static_cast<int>(site)].load(
      std::memory_order_relaxed);
}

void reset() {
  for (int i = 0; i < fault::kNumSites; ++i) {
    fault::g_occurrence[i].store(0, std::memory_order_relaxed);
    fault::g_injected[i].store(0, std::memory_order_relaxed);
    fault::g_recovered[i].store(0, std::memory_order_relaxed);
  }
}

namespace detail {
void add_recovered(fault::Site site) {
  fault::g_recovered[static_cast<int>(site)].fetch_add(
      1, std::memory_order_relaxed);
}
}  // namespace detail

}  // namespace fault_stats

bool check_finite_enabled() {
  const char* env = std::getenv("HODLRX_CHECK_FINITE");
  if (env == nullptr || *env == '\0') return false;
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "off") != 0 &&
         std::strcmp(env, "OFF") != 0;
}

}  // namespace hodlrx
