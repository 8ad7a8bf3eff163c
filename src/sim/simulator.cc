#include "sim/simulator.h"

#include <utility>

#include "obs/obs.h"
#include "service/service.h"

namespace owan::sim {

double SimResult::MeanTimeToRecover() const {
  if (recovery_seconds.empty()) return 0.0;
  double total = 0.0;
  for (double s : recovery_seconds) total += s;
  return total / static_cast<double>(recovery_seconds.size());
}

double SimResult::FractionMeetingDeadline() const {
  int with_deadline = 0;
  int met = 0;
  for (const TransferRecord& t : transfers) {
    if (!t.request.HasDeadline()) continue;
    ++with_deadline;
    if (t.MetDeadline()) ++met;
  }
  return with_deadline == 0
             ? 0.0
             : static_cast<double>(met) / static_cast<double>(with_deadline);
}

double SimResult::FractionBytesByDeadline() const {
  double total = 0.0;
  double by_deadline = 0.0;
  for (const TransferRecord& t : transfers) {
    if (!t.request.HasDeadline()) continue;
    total += t.request.size;
    by_deadline += t.delivered_by_deadline;
  }
  return total == 0.0 ? 0.0 : by_deadline / total;
}

SimResult RunSimulation(const topo::Wan& wan,
                        const std::vector<core::Request>& requests,
                        core::TeScheme& scheme, const SimOptions& options) {
  OWAN_SPAN(run_span, "sim", "run");
  run_span.AddArg("requests", static_cast<double>(requests.size()));
  service::ControllerService loop(&wan, scheme, requests, options);
  loop.Run();
  return std::move(loop).ToSimResult();
}

}  // namespace owan::sim
