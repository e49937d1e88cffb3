#include "guard/guard.hpp"

namespace rpx::guard {

const char *
admissionPolicyName(AdmissionPolicy policy)
{
    switch (policy) {
    case AdmissionPolicy::HardCapOnly:
        return "hard_cap";
    case AdmissionPolicy::CapacityModel:
        return "capacity";
    }
    return "unknown";
}

} // namespace rpx::guard
