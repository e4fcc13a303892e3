#include "reason/policy.h"

#include <string>

#include "match/kernels/registry.h"

namespace ged {

const char* JoinStrategyName(JoinStrategy v) {
  switch (v) {
    case JoinStrategy::kAuto:
      return "auto";
    case JoinStrategy::kPickSmallest:
      return "pick_smallest";
  }
  return "unknown";
}

const char* FsyncPolicyName(DurabilityOptions::Fsync v) {
  switch (v) {
    case DurabilityOptions::Fsync::kEveryCommit:
      return "every_commit";
    case DurabilityOptions::Fsync::kInterval:
      return "interval";
    case DurabilityOptions::Fsync::kNone:
      return "none";
  }
  return "unknown";
}

Status ValidateExecutionPolicy(const ExecutionPolicy& policy) {
  if (policy.kernel != KernelBackend::kAuto &&
      policy.join == JoinStrategy::kPickSmallest) {
    return Status::InvalidArgument(
        std::string("kernel=") + KernelBackendName(policy.kernel) +
        " is inert with join=pick_smallest: the legacy candidate generator "
        "never dispatches an intersection kernel");
  }
  if (policy.kernel != KernelBackend::kAuto &&
      !KernelAvailable(policy.kernel)) {
    return Status::InvalidArgument(
        std::string("kernel=") + KernelBackendName(policy.kernel) +
        " is not available in this binary on this host (available: " +
        [] {
          std::string s;
          for (KernelBackend b : AvailableKernelBackends()) {
            if (!s.empty()) s += ", ";
            s += KernelBackendName(b);
          }
          return s;
        }() +
        ")");
  }
  return Status::OK();
}

}  // namespace ged
