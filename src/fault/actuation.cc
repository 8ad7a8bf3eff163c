#include "fault/actuation.h"

namespace owan::fault {

namespace {

// SplitMix64 finalizer (same mixing as fault_generator's per-component
// substreams): statistically independent outputs for related keys.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Uniform double in [0, 1) from a mixed key.
double UnitDouble(uint64_t key) {
  return static_cast<double>(Mix(key) >> 11) * 0x1.0p-53;
}

}  // namespace

ActuationSample SampleActuation(const ActuationModel& model, int op_id,
                                int attempt, bool circuit_op,
                                double nominal_s, ActuationPhase phase) {
  ActuationSample s;
  s.latency_s = nominal_s;
  if (!model.enabled()) return s;
  // Key the substream on (seed, op, attempt, phase); each draw within the
  // attempt gets its own lane so adding a knob never shifts another draw.
  const uint64_t base =
      Mix(model.seed ^ Mix(static_cast<uint64_t>(op_id) * 0x100000ULL +
                           static_cast<uint64_t>(attempt) * 0x10ULL +
                           static_cast<uint64_t>(phase)));
  const double fail_p =
      circuit_op ? model.circuit_failure_prob : model.route_failure_prob;
  s.fails = UnitDouble(base ^ 0x1ULL) < fail_p;
  if (model.latency_cv > 0.0) {
    s.latency_s = nominal_s * (1.0 + model.latency_cv * UnitDouble(base ^ 0x2ULL));
  }
  if (model.straggler_prob > 0.0 &&
      UnitDouble(base ^ 0x3ULL) < model.straggler_prob) {
    s.straggler = true;
    s.latency_s *= kStragglerFactor;
  }
  return s;
}

}  // namespace owan::fault
