#include "mcs/core/analysis_types.hpp"

#include <sstream>

namespace mcs::core {

MessageRoute classify_route(const model::Application& app,
                            const arch::Platform& platform, util::MessageId m) {
  const model::Message& msg = app.message(m);
  const util::NodeId src = app.process(msg.src).node;
  const util::NodeId dst = app.process(msg.dst).node;
  if (src == dst) return MessageRoute::Local;
  const bool src_tt = platform.is_tt(src);
  const bool dst_tt = platform.is_tt(dst);
  if (src_tt && dst_tt) return MessageRoute::TtToTt;
  if (!src_tt && !dst_tt) return MessageRoute::EtToEt;
  if (src_tt) return MessageRoute::TtToEt;
  return MessageRoute::EtToTt;
}

const char* kernel_name(AnalysisKernel kernel) noexcept {
  switch (kernel) {
    case AnalysisKernel::Reference: return "reference";
    case AnalysisKernel::Fast: return "fast";
  }
  return "?";
}

std::string to_string(MessageRoute route) {
  switch (route) {
    case MessageRoute::Local: return "local";
    case MessageRoute::TtToTt: return "TT->TT";
    case MessageRoute::EtToEt: return "ET->ET";
    case MessageRoute::TtToEt: return "TT->ET";
    case MessageRoute::EtToTt: return "ET->TT";
  }
  return "?";
}

bool is_schedulable(const model::Application& app, const AnalysisResult& result,
                    const std::vector<util::Time>& process_offsets) {
  if (!result.converged) return false;
  for (std::size_t gi = 0; gi < app.num_graphs(); ++gi) {
    if (result.graph_response.at(gi) > app.graphs()[gi].deadline) return false;
  }
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    const model::Process& p = app.processes()[pi];
    if (!p.local_deadline) continue;
    const util::Time completion =
        util::sat_add(process_offsets.at(pi), result.process_response.at(pi));
    if (completion > *p.local_deadline) return false;
  }
  return true;
}

namespace {

template <typename T>
bool same_field(const char* name, const T& a, const T& b, std::string* why) {
  if (a == b) return true;
  if (why != nullptr) {
    std::ostringstream os;
    os << "AnalysisResult::" << name << " differs";
    *why = os.str();
  }
  return false;
}

}  // namespace

bool bit_identical(const AnalysisResult& a, const AnalysisResult& b,
                   std::string* why) {
  return same_field("converged", a.converged, b.converged, why) &&
         same_field("outer_iterations", a.outer_iterations, b.outer_iterations,
                    why) &&
         same_field("diverged_activities", a.diverged_activities,
                    b.diverged_activities, why) &&
         same_field("process_offsets", a.process_offsets, b.process_offsets,
                    why) &&
         same_field("message_offsets", a.message_offsets, b.message_offsets,
                    why) &&
         same_field("process_response", a.process_response, b.process_response,
                    why) &&
         same_field("process_jitter", a.process_jitter, b.process_jitter, why) &&
         same_field("process_interference", a.process_interference,
                    b.process_interference, why) &&
         same_field("message_response", a.message_response, b.message_response,
                    why) &&
         same_field("message_jitter", a.message_jitter, b.message_jitter, why) &&
         same_field("message_queue_delay", a.message_queue_delay,
                    b.message_queue_delay, why) &&
         same_field("message_ttp_wait", a.message_ttp_wait, b.message_ttp_wait,
                    why) &&
         same_field("message_bytes_ahead", a.message_bytes_ahead,
                    b.message_bytes_ahead, why) &&
         same_field("message_delivery", a.message_delivery, b.message_delivery,
                    why) &&
         same_field("graph_response", a.graph_response, b.graph_response, why) &&
         same_field("buffers.out_can", a.buffers.out_can, b.buffers.out_can,
                    why) &&
         same_field("buffers.out_ttp", a.buffers.out_ttp, b.buffers.out_ttp,
                    why) &&
         same_field("buffers.out_node", a.buffers.out_node, b.buffers.out_node,
                    why);
}

}  // namespace mcs::core
