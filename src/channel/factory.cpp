#include "channel/factory.h"

#include <stdexcept>
#include <string>

namespace thinair::channel {

std::string_view to_string(ChannelModelKind kind) {
  switch (kind) {
    case ChannelModelKind::kIid: return "iid";
    case ChannelModelKind::kPerLink: return "per-link";
    case ChannelModelKind::kTestbed: return "testbed";
  }
  return "unknown";
}

namespace {

void check_probability(double p, const char* what) {
  if (!(p >= 0.0 && p <= 1.0))
    throw std::invalid_argument(std::string("make_erasure_model: ") + what +
                                " outside [0, 1]");
}

}  // namespace

std::unique_ptr<ErasureModel> make_erasure_model(
    ChannelModelKind kind, double iid_p, double default_p,
    const std::vector<LinkErasure>& links) {
  switch (kind) {
    case ChannelModelKind::kIid:
      check_probability(iid_p, "iid p");
      return std::make_unique<IidErasure>(iid_p);
    case ChannelModelKind::kPerLink: {
      check_probability(default_p, "default p");
      auto model = std::make_unique<PerLinkErasure>(default_p);
      for (const LinkErasure& link : links) {
        check_probability(link.p, "link p");
        model->set(packet::NodeId{link.tx}, packet::NodeId{link.rx}, link.p);
      }
      return model;
    }
    case ChannelModelKind::kTestbed:
      throw std::invalid_argument(
          "make_erasure_model: the testbed model needs placements — use "
          "testbed::build_channel");
  }
  throw std::logic_error("make_erasure_model: unknown kind");
}

}  // namespace thinair::channel
