#ifndef OWAN_FAULT_ACTUATION_H_
#define OWAN_FAULT_ACTUATION_H_

#include <cstdint>

namespace owan::fault {

// Latency multiplier of a straggling actuation attempt.
inline constexpr double kStragglerFactor = 8.0;

// Seeded model of reconfiguration-actuation behaviour: how long an
// individual update operation (router rule install, ROADM circuit
// provisioning/teardown) really takes and whether it fails outright.
// Open optical-switch measurements (Anazawa et al.) show heavy-tailed
// actuation latencies and occasional hard failures; this model gives the
// update executor a deterministic stand-in for that hardware.
//
// All probabilities are per attempt. A default-constructed model is the
// nominal plant: every op succeeds in exactly its nominal duration, which
// keeps the executor bit-identical to the precomputed schedule.
struct ActuationModel {
  uint64_t seed = 0;
  // Per-attempt hard-failure probability, split by op class: circuit ops
  // touch ROADMs along a path (flaky), route ops touch one router (rarely).
  double circuit_failure_prob = 0.0;
  double route_failure_prob = 0.0;
  // Multiplicative latency jitter: latency = nominal * (1 + cv * U) with
  // U uniform in [0, 1). 0 = exact nominal durations.
  double latency_cv = 0.0;
  // With this probability an attempt straggles: latency is additionally
  // multiplied by kStragglerFactor (it may then trip the executor's
  // timeout and be retried).
  double straggler_prob = 0.0;

  bool enabled() const {
    return circuit_failure_prob > 0.0 || route_failure_prob > 0.0 ||
           latency_cv > 0.0 || straggler_prob > 0.0;
  }
};

// One sampled actuation attempt.
struct ActuationSample {
  double latency_s = 0.0;  // how long the attempt takes (uncapped)
  bool fails = false;      // hard failure: the op did not take effect
  bool straggler = false;  // latency drew the straggler multiplier
};

// Phase of execution an attempt belongs to; rollback undos get their own
// substream so a forward attempt and its undo never share a draw.
enum class ActuationPhase { kForward = 0, kRollback = 1 };

// Pure function of (model.seed, op_id, attempt, phase): the sample for a
// given attempt does not depend on execution order, so a run resumed from
// a write-ahead log re-draws exactly what the interrupted run drew.
// `circuit_op` selects the failure probability; `nominal_s` is the op's
// planned duration.
ActuationSample SampleActuation(const ActuationModel& model, int op_id,
                                int attempt, bool circuit_op,
                                double nominal_s,
                                ActuationPhase phase = ActuationPhase::kForward);

}  // namespace owan::fault

#endif  // OWAN_FAULT_ACTUATION_H_
