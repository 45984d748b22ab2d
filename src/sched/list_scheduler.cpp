#include "mcs/sched/list_scheduler.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "mcs/model/process_graph.hpp"
#include "mcs/util/math.hpp"

namespace mcs::sched {

namespace {

using util::GraphId;

/// Per-(slot, round-occurrence) bytes already packed into the frame.
using FrameLoad = std::map<std::pair<std::size_t, std::int64_t>, std::int64_t>;

/// Finds the placement of a message of `bytes` in `slot`, starting no
/// earlier than `earliest`, given current frame loads; updates the loads.
MessageSlotAssignment place_message(const arch::TdmaRound& tdma, std::size_t slot,
                                    Time earliest, std::int64_t bytes,
                                    FrameLoad& load) {
  const std::int64_t capacity = tdma.slot_capacity(slot);
  if (capacity <= 0) {
    throw std::invalid_argument("place_message: slot has zero payload capacity");
  }
  const Time round_len = tdma.round_length();
  const Time offset = tdma.slot_offset(slot);
  // Occurrence index of the first occurrence starting at or after
  // `earliest`: occurrence k starts at k*round_len + offset.
  std::int64_t k = 0;
  if (earliest > offset) k = util::ceil_div(earliest - offset, round_len);

  // Walk occurrences until the message fits (possibly spanning several
  // consecutive occurrences when larger than one frame).
  for (;; ++k) {
    const std::int64_t free0 = capacity - load[{slot, k}];
    if (free0 <= 0) continue;
    if (bytes <= free0) {
      load[{slot, k}] += bytes;
      MessageSlotAssignment a;
      a.slot_index = slot;
      a.first_round = k;
      a.rounds = 1;
      a.tx_start = k * round_len + offset;
      a.delivery = a.tx_start + tdma.slot(slot).length;
      return a;
    }
    // Multi-frame message: it must start in an empty occurrence and use
    // full frames; partially sharing the first frame would reorder bytes
    // relative to other packed messages.
    if (load[{slot, k}] == 0) {
      const std::int64_t rounds = util::ceil_div(bytes, capacity);
      bool all_free = true;
      for (std::int64_t r = 1; r < rounds; ++r) {
        if (load[{slot, k + r}] != 0) {
          all_free = false;
          break;
        }
      }
      if (!all_free) continue;
      for (std::int64_t r = 0; r < rounds; ++r) {
        const std::int64_t chunk = std::min<std::int64_t>(capacity, bytes - r * capacity);
        load[{slot, k + r}] += chunk;
      }
      MessageSlotAssignment a;
      a.slot_index = slot;
      a.first_round = k;
      a.rounds = rounds;
      a.tx_start = k * round_len + offset;
      a.delivery = (k + rounds - 1) * round_len + offset + tdma.slot(slot).length;
      return a;
    }
  }
}

}  // namespace

ScheduleConstraints ScheduleConstraints::none(const Application& app) {
  ScheduleConstraints c;
  c.process_release.assign(app.num_processes(), 0);
  c.message_tx.assign(app.num_messages(), 0);
  return c;
}

Time ScheduleConstraints::process_lb(ProcessId p) const {
  return process_release.empty() ? 0 : process_release.at(p.index());
}

Time ScheduleConstraints::message_lb(MessageId m) const {
  return message_tx.empty() ? 0 : message_tx.at(m.index());
}

ListSchedulePlan::ListSchedulePlan(const Application& app,
                                   const arch::Platform& platform) {
  const std::size_t n = app.num_processes();
  critical_path_.assign(n, 0);
  for (std::size_t gi = 0; gi < app.num_graphs(); ++gi) {
    const GraphId g(static_cast<GraphId::underlying_type>(gi));
    model::longest_path_from(app, model::topological_order(app, g), critical_path_);
  }

  is_tt_.assign(n, 0);
  tt_preds_.assign(n, 0);
  pure_succ_begin_.assign(n + 1, 0);
  // Message arcs still to strike per destination while walking one
  // process's successor list.  Every message is also a successor entry,
  // so the counts are back to zero after each walk.
  std::vector<std::uint32_t> message_arcs(n, 0);
  for (std::size_t pi = 0; pi < n; ++pi) {
    const model::Process& proc =
        app.process(ProcessId(static_cast<ProcessId::underlying_type>(pi)));
    if (platform.is_tt(proc.node)) {
      is_tt_[pi] = 1;
      ++tt_count_;
      for (const ProcessId pred : proc.predecessors) {
        if (platform.is_tt(app.process(pred).node)) ++tt_preds_[pi];
      }
    }
    pure_succ_begin_[pi] = static_cast<std::uint32_t>(pure_succ_.size());
    // Each successor entry is one arc; strike one arc per outgoing message
    // to that destination, the rest are pure precedence.
    for (const MessageId mid : proc.out_messages) {
      ++message_arcs[app.message(mid).dst.index()];
    }
    for (const ProcessId succ : proc.successors) {
      if (message_arcs[succ.index()] > 0) {
        --message_arcs[succ.index()];
        continue;
      }
      pure_succ_.push_back(succ);
    }
  }
  pure_succ_begin_[n] = static_cast<std::uint32_t>(pure_succ_.size());
}

TtcSchedule list_schedule(const Application& app, const arch::Platform& platform,
                          const arch::TdmaRound& tdma,
                          const ScheduleConstraints& constraints) {
  ListScheduleScratch scratch;
  return list_schedule(app, platform, tdma, constraints,
                       ListSchedulePlan(app, platform), scratch);
}

TtcSchedule list_schedule(const Application& app, const arch::Platform& platform,
                          const arch::TdmaRound& tdma,
                          const ScheduleConstraints& constraints,
                          const ListSchedulePlan& plan, ListScheduleScratch& scratch) {
  const std::size_t n = app.num_processes();
  if (plan.critical_path().size() != n) {
    throw std::invalid_argument("list_schedule: plan built for a different application");
  }
  TtcSchedule out;
  out.process_start.assign(n, 0);
  out.message_slot.assign(app.num_messages(), std::nullopt);

  // Only TT processes are scheduled here.  A TT process becomes ready when
  // every predecessor constraint is resolved: TT predecessors must have
  // been scheduled (their finish / message delivery is known); ET
  // predecessors contribute through `constraints.process_release` (the
  // MultiClusterScheduling fixed point supplies worst-case deliveries).
  std::vector<std::uint32_t>& unresolved = scratch.unresolved;
  std::vector<Time>& release = scratch.release;
  std::vector<Time>& node_free = scratch.node_free;
  std::vector<ProcessId>& ready = scratch.ready;
  unresolved.assign(n, 0);
  release.assign(n, 0);
  node_free.assign(platform.num_nodes(), 0);
  ready.clear();

  // Ready heap: its top is the longest critical path, ties to the lowest
  // id.  The order is strict and total, so the pop sequence is fully
  // determined by the ready set.
  const std::vector<Time>& cp = plan.critical_path();
  const auto lower_priority = [&cp](ProcessId a, ProcessId b) {
    if (cp[a.index()] != cp[b.index()]) return cp[a.index()] < cp[b.index()];
    return b < a;
  };
  const auto push_ready = [&](ProcessId p) {
    ready.push_back(p);
    std::push_heap(ready.begin(), ready.end(), lower_priority);
  };
  for (std::size_t pi = 0; pi < n; ++pi) {
    const ProcessId p(static_cast<ProcessId::underlying_type>(pi));
    if (!plan.is_tt(p)) continue;
    release[pi] = constraints.process_lb(p);
    unresolved[pi] = plan.tt_predecessors(p);
    if (unresolved[pi] == 0) push_ready(p);
  }

  FrameLoad frame_load;
  std::size_t scheduled = 0;

  auto resolve_successor = [&](ProcessId succ) {
    if (!plan.is_tt(succ)) return;
    if (--unresolved[succ.index()] == 0) push_ready(succ);
  };

  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), lower_priority);
    const ProcessId p = ready.back();
    ready.pop_back();
    const model::Process& proc = app.process(p);

    const Time start = std::max(release[p.index()], node_free[proc.node.index()]);
    const Time finish = start + proc.wcet;
    out.process_start[p.index()] = start;
    node_free[proc.node.index()] = finish;
    out.makespan = std::max(out.makespan, finish);
    ++scheduled;

    // Every successor is released no earlier than this finish; message
    // arcs raise the bound further below.
    for (const ProcessId succ : proc.successors) {
      release[succ.index()] = std::max(release[succ.index()], finish);
    }
    // Outgoing messages: place remote ones on the TTP bus.
    for (const MessageId mid : proc.out_messages) {
      const model::Message& msg = app.message(mid);
      const NodeId dst_node = app.process(msg.dst).node;
      if (dst_node == proc.node) {
        // Local: receiver can start right after the sender.
        release[msg.dst.index()] =
            std::max(release[msg.dst.index()], finish);
      } else {
        if (!tdma.owns_slot(proc.node)) {
          // The message arc stays unresolved: its receiver is never ready.
          out.feasible = false;
          out.problems.push_back("node '" + platform.node(proc.node).name +
                                 "' sends message '" + msg.name +
                                 "' but owns no TDMA slot");
          continue;
        }
        const Time earliest =
            std::max(finish, constraints.message_lb(mid));
        const auto assignment = place_message(tdma, tdma.slot_of(proc.node),
                                              earliest, msg.size_bytes, frame_load);
        out.message_slot[mid.index()] = assignment;
        out.makespan = std::max(out.makespan, assignment.delivery);
        if (platform.is_tt(dst_node)) {
          release[msg.dst.index()] =
              std::max(release[msg.dst.index()], assignment.delivery);
        }
        // TT->ET: the delivery instant becomes the message offset on the
        // CAN side; nothing to do here (the analysis reads message_slot).
      }
      resolve_successor(msg.dst);
    }
    // Dependencies without a message (message arcs were resolved above).
    for (const ProcessId succ : plan.pure_successors(p)) resolve_successor(succ);
  }

  // All TT processes must have been placed (otherwise a dependency cycle
  // or an arc from an unscheduled predecessor remained).
  if (scheduled != plan.tt_count()) {
    out.feasible = false;
    out.problems.push_back("list_schedule: not all TT processes could be scheduled "
                           "(dependency cycle?)");
  }
  return out;
}

std::vector<Time> recommended_slot_lengths(const Application& app,
                                           const arch::Platform& platform,
                                           NodeId node, std::size_t max_candidates) {
  if (max_candidates == 0) {
    throw std::invalid_argument("recommended_slot_lengths: max_candidates must be >= 1");
  }
  // Candidate lengths: enough for each distinct outgoing message size, for
  // the largest message, and for packing the two/all largest together.
  std::vector<std::int64_t> sizes;
  const bool gateway = platform.has_gateway() && platform.gateway() == node;
  for (const model::Message& m : app.messages()) {
    const NodeId src = app.process(m.src).node;
    const NodeId dst = app.process(m.dst).node;
    if (src == dst) continue;
    if (gateway) {
      if (platform.is_et(src) && platform.is_tt(dst)) sizes.push_back(m.size_bytes);
    } else if (src == node) {
      sizes.push_back(m.size_bytes);
    }
  }
  if (sizes.empty()) return {platform.ttp().length_for_bytes(1)};

  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  std::set<std::int64_t> byte_candidates;
  byte_candidates.insert(sizes.front());           // largest single message
  std::int64_t prefix = 0;
  for (const std::int64_t s : sizes) {             // largest k packed together
    prefix += s;
    byte_candidates.insert(prefix);
  }
  for (const std::int64_t s : sizes) byte_candidates.insert(s);

  std::vector<Time> lengths;
  for (const std::int64_t b : byte_candidates) {
    lengths.push_back(platform.ttp().length_for_bytes(b));
  }
  std::sort(lengths.begin(), lengths.end());
  lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());
  if (max_candidates == 1) return {lengths.back()};
  if (lengths.size() > max_candidates) {
    // Keep the smallest, the largest and an even spread in between.
    std::vector<Time> kept;
    const double step = static_cast<double>(lengths.size() - 1) /
                        static_cast<double>(max_candidates - 1);
    for (std::size_t i = 0; i < max_candidates; ++i) {
      kept.push_back(lengths[static_cast<std::size_t>(static_cast<double>(i) * step)]);
    }
    kept.back() = lengths.back();
    lengths = std::move(kept);
    lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());
  }
  return lengths;
}

}  // namespace mcs::sched
