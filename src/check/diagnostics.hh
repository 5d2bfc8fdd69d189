/**
 * @file
 * Human-readable rendering of a ChannelSnapshot, used by the
 * forward-progress watchdog to explain *why* a channel is stuck:
 * what is queued, what every bank is waiting for, and where the
 * refresh engine stands.
 */

#ifndef CRITMEM_CHECK_DIAGNOSTICS_HH
#define CRITMEM_CHECK_DIAGNOSTICS_HH

#include <string>

#include "dram/observer.hh"
#include "mem/request.hh"

namespace critmem
{

/**
 * Who a request belongs to, for diagnostics: "core N" for a core's
 * demand request, "prefetch" for an L2 prefetch, "writeback" for a
 * dirty eviction (neither carries a meaningful core id).
 */
std::string requestOrigin(ReqType type, CoreId core);

/**
 * Render @p snap as a multi-line diagnostic dump. Queue listings are
 * truncated to @p maxQueueEntries per queue (0 = unlimited).
 */
std::string formatSnapshot(const ChannelSnapshot &snap,
                           std::size_t maxQueueEntries = 16);

} // namespace critmem

#endif // CRITMEM_CHECK_DIAGNOSTICS_HH
