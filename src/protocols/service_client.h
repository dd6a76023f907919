// The protocol-independent service-client interface, under the name the
// workload driver and the examples use.  It lives in rpc/register_client.h,
// beside the register operations the quorum-based clients implement it with.
#pragma once

#include "rpc/register_client.h"

namespace dq::protocols {

using ServiceClient = rpc::ServiceClient;

}  // namespace dq::protocols
