#pragma once
// SINR -> packet-error-rate mapping.
//
// A 100-byte 802.11g frame at 1 Mbps (DSSS/CCK-style robust rate, as used
// by the testbed) survives when its SINR clears a threshold; per-packet
// fading smears the threshold into a smooth sigmoid. We use a logistic
// curve in the dB domain — the standard abstraction when per-packet fading
// in dB is approximately logistic/normal — parameterised by the 50%-loss
// threshold and a scale that encodes fading variance.

#include <cstddef>

namespace thinair::channel {

struct SinrParams {
  double noise_floor_dbm = -90.0;  // thermal + receiver noise figure
  double per_threshold_db = 5.0;   // SINR with 50% packet loss
  double per_scale_db = 3.5;       // indoor multipath fading spread
  double floor = 0.005;            // residual loss on perfect links
  double ceiling = 0.94;           // capture effect: jamming rarely hits 100%

  friend bool operator==(const SinrParams&, const SinrParams&) = default;
};

/// Packet error rate for the given SINR (dB) under `params`; monotonically
/// decreasing in SINR, clamped to [floor, ceiling].
[[nodiscard]] double packet_error_rate(double sinr_db,
                                       const SinrParams& params);

/// Interference plus the noise floor (dB), from interference power (mW):
/// the denominator of sinr_db.
[[nodiscard]] double interference_plus_noise_db(double interference_mw,
                                                const SinrParams& params);

/// SINR (dB) from received signal power and interference power (both mW):
/// linear_to_db(signal_mw) - interference_plus_noise_db(interference_mw).
[[nodiscard]] double sinr_db(double signal_mw, double interference_mw,
                             const SinrParams& params);

}  // namespace thinair::channel
