#include "fabric/types.hpp"

namespace resex::fabric::detail {

void TransferRef::destroy(Transfer* t) noexcept { delete t; }

}  // namespace resex::fabric::detail
