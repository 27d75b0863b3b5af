#include "channel/link_batch.h"

namespace vanet::channel {

void LinkBatch::resize(std::size_t n) {
  ids_.resize(n);
  x_.resize(n);
  y_.resize(n);
  mean_.resize(n);
  known_.assign(n, 0);
  knownCount_ = 0;
  dist_.resize(n);
  loss_.resize(n);
  shadow_.resize(n);
  fade_.resize(n);
  faded_.resize(n);
  draw_.resize(n);
  deferred_.assign(n, 0);
  fading_ = nullptr;
}

}  // namespace vanet::channel
