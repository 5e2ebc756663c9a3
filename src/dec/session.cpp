#include "dec/session.h"

#include <stdexcept>
#include <utility>

namespace ppms {

DecSession::DecSession(TypeAParams pairing)
    : gt_(std::move(pairing)), pre_g_(engine().precompute(gt_.params().g)) {}

std::shared_ptr<const ClPkPrecomp> DecSession::pk_tables(
    const ClPublicKey& pk) const {
  const Bytes key = pk.serialize(gt_.params());
  std::lock_guard lock(mu_);
  const auto it = pk_cache_.find(key);
  if (it != pk_cache_.end()) return it->second;
  std::shared_ptr<const ClPkPrecomp> tables;
  try {
    auto built = std::make_shared<ClPkPrecomp>();
    built->X = engine().precompute(pk.X);
    built->Y = engine().precompute(pk.Y);
    tables = std::move(built);
  } catch (const std::invalid_argument&) {
    tables = nullptr;  // off-curve key: cache the rejection too
  }
  pk_cache_.emplace(std::move(key), tables);
  return tables;
}

}  // namespace ppms
