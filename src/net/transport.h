// The carrier under the scp actor runtime.
//
// The runtime produces encoded frames (scp::WireEnvelope bytes) and an
// explicit byte charge; SimTransport moves each frame across the
// virtual-time net::Network by closure at the simulated arrival time, the
// charge driving serialization and lane modelling. The charge is separate
// from the frame size on purpose: the sim models the paper's 64-byte
// protocol header and CostOnly declared sizes. Real processes do not run
// the actor runtime; they speak the worker plane over sockets
// (socket_transport.h), driven by the same fusion Coordinator the sim's
// manager actor drives (core/distributed/coordinator.h).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/node.h"
#include "net/network.h"
#include "support/time.h"

namespace rif::net {

class SimTransport {
 public:
  /// Delivered frames land here, on the receiving side's execution context.
  using Handler =
      std::function<void(cluster::NodeId dst, std::vector<std::uint8_t>)>;

  explicit SimTransport(Network& network) : network_(network) {}

  void set_handler(Handler h) { handler_ = std::move(h); }

  /// Ship `frame` from `src` to `dst`, charging `charged_bytes` to the
  /// network model. Returns the virtual arrival time.
  SimTime send(cluster::NodeId src, cluster::NodeId dst,
               std::vector<std::uint8_t> frame, std::uint64_t charged_bytes);

 private:
  Network& network_;
  Handler handler_;
};

}  // namespace rif::net
