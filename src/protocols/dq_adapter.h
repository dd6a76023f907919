// The dual-quorum clients under the protocols:: names the examples and
// benches use.  Both implement ServiceClient directly.
#pragma once

#include "core/dq_atomic_client.h"
#include "core/dq_client.h"
#include "protocols/service_client.h"

namespace dq::protocols {

using DqServiceClient = core::DqClient;
// The atomic-semantics variant (paper section 6 future work): reads pay a
// write-back confirmation round; see core/dq_atomic_client.h.
using DqAtomicServiceClient = core::DqAtomicClient;

}  // namespace dq::protocols
