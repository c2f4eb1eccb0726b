#pragma once

#include <cstdint>

/// \file fault.hpp
/// Deterministic numerical-fault injection and the breakdown policy knob.
///
/// Every recovery path in the library (the "recovery ladder": ACA stall ->
/// rsvd retry of the materialized block, sweep exhaustion in the batched
/// recompression SVD -> serial re-run with a larger budget, workspace
/// growth failure -> drop-and-retry) guards a numerical event that healthy
/// inputs never trigger. This registry makes those events reproducible:
/// `HODLRX_FAULT=site[:nth]` (comma-separated) arms a named injection site,
/// and the site fires on exactly the nth occurrence check (default: the
/// first). The environment is reread on every check — the same convention as
/// HODLRX_SVD_SWEEPS — so tests can arm and disarm sites at runtime, and
/// `fault_stats` counts injected vs recovered so tests can assert that every
/// injected fault was actually healed (injected == recovered).

namespace hodlrx {

/// What to do when a numerical breakdown is detected (SVD sweep exhaustion,
/// ACA stall, non-finite values, failed post-solve residual check). An
/// exact zero pivot in the pivoted LU leaves no usable factor and throws
/// under every policy.
enum class OnBreakdown {
  kThrow,    ///< raise hodlrx::Error exactly as the pre-resilience code did
  kRecover,  ///< run the recovery ladder; record the action in the report
  kReport,   ///< record the breakdown and keep the degraded result
             ///< (achieved-rank ACA factor, unconverged SVD factors,
             ///< unrefined solution)
};

namespace fault {

/// Named injection sites. The string forms (site_name) are what
/// HODLRX_FAULT matches against.
enum class Site : int {
  kSvdSweeps = 0,   ///< "svd.sweeps": batched Jacobi sweep budget forced to 1
  kAcaStall,        ///< "aca.stall": aca() stalls after two crosses
  kWorkspaceAlloc,  ///< "workspace.alloc": WorkspaceArena growth throws once
  kNumSites,
};

const char* site_name(Site site);

/// True when HODLRX_FAULT arms `site` and this is the armed occurrence.
/// Each call while the site is armed advances a per-site occurrence counter
/// (atomic — sites are checked from pool tasks); the spec `site:nth` fires
/// on occurrence == nth only, so exactly ONE check fires per
/// fault_stats::reset(). A firing check is counted in
/// fault_stats::injected(). Unarmed sites are free: one getenv, no counter
/// traffic.
bool should_fire(Site site);

}  // namespace fault

/// Process-wide injection/recovery counters (relaxed atomics, same pattern
/// as svd_stats). `recovered` counts successful recovery-ladder engagements
/// regardless of cause; in a fault-injection run with no organic breakdowns
/// the invariant injected == recovered must hold, and tests assert it.
namespace fault_stats {
std::uint64_t injected();
std::uint64_t recovered();
std::uint64_t injected(fault::Site site);
std::uint64_t recovered(fault::Site site);
/// Zero all counters AND the per-site occurrence counts, re-arming every
/// `site[:nth]` spec in HODLRX_FAULT.
void reset();
namespace detail {  // increment hook for the recovery paths
void add_recovered(fault::Site site);
}  // namespace detail
}  // namespace fault_stats

/// True when HODLRX_CHECK_FINITE asks for NaN/Inf scans at stage boundaries
/// (build, factor, solve). Any value other than "" / "0" / "off" enables;
/// reread per call like the other env knobs.
bool check_finite_enabled();

}  // namespace hodlrx
