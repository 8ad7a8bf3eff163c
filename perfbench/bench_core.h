#ifndef OWAN_PERFBENCH_BENCH_CORE_H_
#define OWAN_PERFBENCH_BENCH_CORE_H_

// The whole-run controller benchmark: workload definitions, the timing
// TeScheme decorator, and the exact percentile helper. Everything here
// drives the program through its public entry points only.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/owan.h"
#include "core/te_scheme.h"
#include "fault/fault_generator.h"
#include "service/service.h"
#include "sim/simulator.h"
#include "topo/topologies.h"
#include "workload/stream.h"
#include "workload/workload.h"

namespace owan::perfbench {

// Exact percentile of `samples` (pct in [0, 100]) by linear interpolation
// between closest ranks (the numpy/"type 7" definition). Throws on an
// empty sample set.
double Percentile(std::vector<double> samples, double pct);

// Transparent timing decorator around any TeScheme: every Compute runs
// inside a benchmark-owned "bench/te.compute" span (arg = decision index)
// and its wall time is recorded. The observer, if set, runs after the
// span closes, so capture work is never charged to the decision.
class TimedScheme : public core::TeScheme {
 public:
  using Observer =
      std::function<void(const core::TeInput&, const core::TeOutput&)>;

  explicit TimedScheme(std::unique_ptr<core::TeScheme> inner);

  std::string name() const override { return inner_->name(); }
  core::TeOutput Compute(const core::TeInput& input) override;
  bool Admit(const core::Request& request, double now) override {
    return inner_->Admit(request, now);
  }

  void set_observer(Observer observer) { observer_ = std::move(observer); }
  // Wall milliseconds of each Compute call, in call order.
  const std::vector<double>& compute_ms() const { return compute_ms_; }

 private:
  std::unique_ptr<core::TeScheme> inner_;
  Observer observer_;
  std::vector<double> compute_ms_;
};

// What one decision looked like, for the replays that run after the timed
// part. The plant is shared between decisions while its state_stamp()
// stays the same.
struct DecisionCapture {
  std::shared_ptr<const optical::OpticalNetwork> plant;
  core::Topology adopted;
  std::vector<core::TransferDemand> demands;
  std::vector<core::TransferAllocation> allocations;
  double now = 0.0;
};

// Outcome of one timed run of a workload.
struct RunOutcome {
  std::vector<double> decision_ms;  // one sample per control decision
  double run_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  double completion_s_mean = 0.0;   // simulated seconds
  double accept_frac = 0.0;
  double verdicts = 0.0;            // decisions_per_s numerator
  uint64_t fingerprint = 0;         // determinism check across runs
  std::vector<std::string> failure_examples;

  // Work counts the per-layer report reads.
  int fault_events = 0;
  uint64_t service_slots = 0;
  uint64_t service_recomputes = 0;
  uint64_t service_pending_enqueued = 0;
};

// The admission stream and the ledger the Offer replay walks.
struct OfferReplay {
  std::vector<core::Request> requests;
  net::Graph ledger_topology;
  double slot_seconds = 0.0;
};

// One benchmark workload. Setup() builds everything a run needs (WAN,
// generated inputs, scheme or service) from the seed, under one benchmark
// span per stage, and returns its wall seconds. It is cheap enough to
// repeat; Run() consumes what the last Setup() built.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual double Setup() = 0;
  // `capture`, when non-null, receives one entry per decision.
  virtual RunOutcome Run(std::vector<DecisionCapture>* capture) = 0;
  // Admission workloads: what the Offer replay walks. Empty for the sims.
  virtual OfferReplay AdmissionReplay() const { return {}; }
  // Checks a second, untimed way of running the same seed (admission:
  // retained records and ToSimResult) and fills in what only it can
  // provide. Returns false and explains in `why` on any disagreement.
  virtual bool Verify(RunOutcome& outcome, std::string* why) {
    (void)outcome;
    (void)why;
    return true;
  }
};

// Input sizes of the sim workloads (overridable for tuning and tests).
struct SimWorkloadSpec {
  bool qot_graded = false;  // false: MakeByName(topology)
  std::string topology = "isp100";
  workload::WorkloadParams transfers;
  // Fault schedule: `failure_episodes` of the MTBF/MTTR renewal faults plus
  // span degrade/repair pairs. All off for the steady workload.
  fault::FaultGeneratorOptions faults;
  int failure_episodes = 0;
  int span_degrade_pairs = 0;
  double span_repair_mean_s = 1800.0;
  core::OwanOptions owan;
  sim::SimOptions sim;
};

struct AdmissionWorkloadSpec {
  std::string topology = "isp40";
  workload::StreamParams stream;
  uint64_t requests = 20000;
  service::ServiceOptions service;
};

SimWorkloadSpec SteadySpec(uint64_t seed);
SimWorkloadSpec QotFaultsSpec(uint64_t seed);
AdmissionWorkloadSpec AdmissionSpec(uint64_t seed);

std::unique_ptr<Workload> MakeSimWorkload(SimWorkloadSpec spec);
std::unique_ptr<Workload> MakeAdmissionWorkload(AdmissionWorkloadSpec spec);

// The three named workloads; throws std::invalid_argument on other names.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);
std::vector<std::string> WorkloadNames();

// Peak resident set of this process so far, in MB.
double PeakRssMb();

}  // namespace owan::perfbench

#endif  // OWAN_PERFBENCH_BENCH_CORE_H_
