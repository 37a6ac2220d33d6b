#include "channel/sinr.h"

#include <algorithm>
#include <cmath>

#include "channel/pathloss.h"

namespace thinair::channel {

double packet_error_rate(double sinr, const SinrParams& params) {
  const double z = (sinr - params.per_threshold_db) / params.per_scale_db;
  const double per = 1.0 / (1.0 + std::exp(z));
  return std::clamp(per, params.floor, params.ceiling);
}

double interference_plus_noise_db(double interference_mw,
                                  const SinrParams& params) {
  return linear_to_db(db_to_linear(params.noise_floor_dbm) + interference_mw);
}

double sinr_db(double signal_mw, double interference_mw,
               const SinrParams& params) {
  return linear_to_db(signal_mw) -
         interference_plus_noise_db(interference_mw, params);
}

}  // namespace thinair::channel
