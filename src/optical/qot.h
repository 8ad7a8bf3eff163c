#ifndef OWAN_OPTICAL_QOT_H_
#define OWAN_OPTICAL_QOT_H_

#include <vector>

namespace owan::optical {

// One row of the modulation table: the minimum SNR (dB) at which the
// format still closes, and the per-wavelength capacity it then carries.
// An SNR exactly at min_snr_db qualifies for the tier.
struct ModulationTier {
  double min_snr_db = 0.0;
  double capacity_gbps = 0.0;
};
bool operator==(const ModulationTier& a, const ModulationTier& b);
inline bool operator!=(const ModulationTier& a, const ModulationTier& b) {
  return !(a == b);
}

// Default four-tier table (PM-QPSK .. PM-16QAM flavored). With the default
// span parameters a single amplified 80 km span yields 33 dB OSNR / 31 dB
// SNR, so the tiers grade out at roughly 630 / 1260 / 2530 / 5050 km of
// contiguous fiber for 200 / 150 / 100 / 50 G.
std::vector<ModulationTier> DefaultModulationTiers();

// Physical-layer model knobs. Disabled by default: the plant then keeps the
// legacy hard-reach semantics (reach_km cutoff, fixed theta per wavelength)
// bit-for-bit. Enabling switches provisioning to quality-graded capacity.
struct QotOptions {
  bool enabled = false;
  // Amplifier spacing: a fiber of length L is modeled as floor(L/span_km)
  // full spans plus one remainder span (not an equal division), each
  // followed by an EDFA that contributes ASE noise.
  double span_km = 80.0;
  double fiber_loss_db_per_km = 0.25;
  double amp_noise_figure_db = 5.0;
  double tx_power_dbm = 0.0;
  // Flat margin subtracted from accumulated OSNR to get the SNR that is
  // matched against the modulation table (filtering/aging allowance).
  double snr_margin_db = 2.0;
  std::vector<ModulationTier> tiers = DefaultModulationTiers();
};
bool operator==(const QotOptions& a, const QotOptions& b);
inline bool operator!=(const QotOptions& a, const QotOptions& b) {
  return !(a == b);
}

// 10*log10(P_tx / P_ase-floor) reference used by the per-span OSNR formula:
// OSNR_span = kOsnrRefDb + tx_power_dbm - loss_db - noise_figure_db.
// (58 dB folds the usual 10log10(h*nu*B_ref) = -58 dBm at 0.1 nm.)
inline constexpr double kOsnrRefDb = 58.0;

// Amplified-span layout of one fiber: floor(length/span_km) full spans plus
// the remainder (omitted when zero). Empty for non-positive lengths.
std::vector<double> SpanLengthsKm(double length_km, double span_km);

// OSNR (dB) of a single amplified span of the given length, with
// `extra_loss_db` of additional attenuation (degradation) lumped onto it.
// A zero-length span still costs amplifier noise: kOsnrRefDb + tx - nf.
double SpanOsnrDb(double span_len_km, double extra_loss_db,
                  const QotOptions& q);

// Sum of linear inverse OSNR over the spans of one fiber. Degradation
// (`extra_loss_db`, absolute dB for the whole fiber) is spread uniformly
// across its spans. Zero for a zero-length fiber (no spans, no noise).
// Strictly increasing and continuous in length_km, which makes the reach
// bisection below valid.
double FiberInverseOsnr(double length_km, double extra_loss_db,
                        const QotOptions& q);

// Convert accumulated inverse OSNR to margin-adjusted SNR (dB). An empty
// path (inverse OSNR 0) has infinite SNR.
double SnrDbFromInverseOsnr(double inverse_osnr, const QotOptions& q);

// Highest-capacity tier whose min_snr_db the given SNR meets (>=, so a
// value exactly at threshold qualifies); 0 when below every tier.
double CapacityForSnrGbps(double snr_db, const QotOptions& q);

// Largest single contiguous fiber length that still yields nonzero
// capacity. Heuristic pruning/segmentation bound only: splitting the same
// total length across several fibers can land either above or below this,
// so per-segment SNR remains the authoritative feasibility check.
double EffectiveQotReachKm(const QotOptions& q);

// Seeded-defect hook for `owan_fuzz --inject-bug qot`: when enabled,
// FiberInverseOsnr silently drops the first span's noise contribution of
// every fiber, the classic off-by-one in span accumulation. The QoT oracle
// must catch this via its independent reference implementation. Plants
// cache each fiber's FiberInverseOsnr, so set it before building any.
void TestOnlySkipFirstSpanNoise(bool on);
bool TestOnlySkipFirstSpanNoiseEnabled();

}  // namespace owan::optical

#endif  // OWAN_OPTICAL_QOT_H_
