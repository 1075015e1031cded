// Ring-health introspection: renders the live protocol state of a set of
// SessionNodes — membership, token holder, token sequence, per-node state —
// for chaos-failure diagnostics. Read-only: it never mutates or perturbs
// the nodes it observes.
#pragma once

#include <string>
#include <vector>

#include "session/session_node.h"

namespace raincore::session {

/// Human-readable multi-line dump: one row per node, in the given order,
/// plus a ring-level summary (token holders, distinct views and groups).
std::string dump_rings(const std::vector<const SessionNode*>& nodes);

}  // namespace raincore::session
