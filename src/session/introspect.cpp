#include "session/introspect.h"

#include <cstdio>
#include <set>

namespace raincore::session {

namespace {

const char* state_name(SessionNode::State s) {
  switch (s) {
    case SessionNode::State::kIdle: return "IDLE";
    case SessionNode::State::kHungry: return "HUNGRY";
    case SessionNode::State::kEating: return "EATING";
    case SessionNode::State::kStarving: return "STARVING";
  }
  return "?";
}

}  // namespace

std::string dump_rings(const std::vector<const SessionNode*>& nodes) {
  std::string out = "ring state:\n";
  std::vector<NodeId> holders;
  std::set<std::uint64_t> views;
  std::set<GroupId> groups;
  char buf[256];
  for (const SessionNode* n : nodes) {
    const View& v = n->view();
    std::string members;
    for (std::size_t i = 0; i < v.members.size(); ++i) {
      if (i) members += ' ';
      members += std::to_string(v.members[i]);
    }
    std::snprintf(buf, sizeof(buf),
                  "  node %-4u %-8s %-5s view=%llu group=%u seq=%llu "
                  "lineage=%llx pend=%zu tbm=%zu ring=[%s]\n",
                  n->id(), n->started() ? state_name(n->state()) : "DOWN",
                  n->holds_token() ? "TOKEN" : "-",
                  static_cast<unsigned long long>(v.view_id), v.group_id,
                  static_cast<unsigned long long>(n->last_copy().seq),
                  static_cast<unsigned long long>(n->last_copy().lineage),
                  n->pending_out(), n->pending_foreign_count(),
                  members.c_str());
    out += buf;
    if (!n->started()) continue;
    if (n->holds_token()) holders.push_back(n->id());
    views.insert(v.view_id);
    groups.insert(v.group_id);
  }
  std::string holder_str;
  for (NodeId h : holders) {
    if (!holder_str.empty()) holder_str += ',';
    holder_str += std::to_string(h);
  }
  std::snprintf(buf, sizeof(buf),
                "  summary: holders=[%s] distinct_views=%zu "
                "distinct_groups=%zu\n",
                holder_str.c_str(), views.size(), groups.size());
  out += buf;
  return out;
}

}  // namespace raincore::session
