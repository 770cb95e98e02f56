#include "fabric/types.hpp"

namespace resex::fabric {

const char* to_string(CqeStatus s) noexcept {
  switch (s) {
    case CqeStatus::kSuccess: return "success";
    case CqeStatus::kLocalProtectionError: return "local-protection-error";
    case CqeStatus::kRemoteAccessError: return "remote-access-error";
    case CqeStatus::kRnrRetryExceeded: return "rnr-retry-exceeded";
    case CqeStatus::kLocalLengthError: return "local-length-error";
    case CqeStatus::kRetryExceeded: return "retry-exceeded";
    case CqeStatus::kWrFlushError: return "wr-flush-error";
    case CqeStatus::kRemoteOperationError: return "remote-operation-error";
  }
  return "unknown";
}

namespace detail {
void TransferRef::destroy(Transfer* t) noexcept { delete t; }
}  // namespace detail

}  // namespace resex::fabric
