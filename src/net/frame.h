// Length-prefixed framing for the real byte transport.
//
// Every frame on a socket is `[magic u32][length u32][payload bytes]`, with
// the payload being a `scp::WireEnvelope` encoding (see scp/wire.h). The
// magic guards against a peer speaking the wrong protocol, and the length
// cap guards against a corrupt prefix allocating unbounded memory. The
// assembler reconstructs frames from arbitrary read() fragments, so the
// event loop never needs to block for a full frame.
//
// The header words are little-endian on the wire. The payload keeps the
// Writer/Reader host format (see support/serialize.h), so deployments must
// be same-endian end to end; a mixed-endian peer fails the envelope's
// bounds checks on the first frame rather than desyncing the stream.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace rif::net {

inline constexpr std::uint32_t kFrameMagic = 0x52494631;  // "RIF1"

/// Hard ceiling on a single frame payload. Large enough for a full-cube
/// state transfer, small enough that a corrupt length dies immediately.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;  // 1 GiB

/// Bytes of the `[magic][length]` header in front of every payload.
inline constexpr std::size_t kFrameHeaderBytes = 2 * sizeof(std::uint32_t);

/// Bytes a payload costs on the wire once framed.
[[nodiscard]] inline std::uint64_t framed_size(std::uint64_t payload_bytes) {
  return payload_bytes + kFrameHeaderBytes;
}

using FrameHeader = std::array<std::uint8_t, kFrameHeaderBytes>;

/// The header that goes in front of a `payload_bytes`-long payload. The
/// socket paths send it and the payload with one gathered write, so the
/// payload is never copied into a framed buffer.
[[nodiscard]] FrameHeader frame_header(std::size_t payload_bytes);

/// Serialize one frame (header + payload) into a contiguous buffer.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    const std::vector<std::uint8_t>& payload);

/// Incremental frame reassembler: feed it whatever the socket produced —
/// one byte or ten frames — and it invokes the sink once per completed
/// payload. Once a header is read, the payload is assembled in a buffer
/// sized for it and handed to the sink by move. Returns false (and poisons
/// itself) on bad magic or an oversized length; the connection should then
/// be dropped.
class FrameAssembler {
 public:
  using Sink = std::function<void(std::vector<std::uint8_t> payload)>;

  [[nodiscard]] bool feed(const std::uint8_t* data, std::size_t n,
                          const Sink& sink);

  [[nodiscard]] bool corrupt() const { return corrupt_; }
  /// Bytes buffered toward the next (incomplete) frame.
  [[nodiscard]] std::size_t pending_bytes() const {
    return header_bytes_ + payload_.size();
  }

 private:
  FrameHeader header_{};
  std::size_t header_bytes_ = 0;  ///< bytes of header_ received so far
  std::uint32_t length_ = 0;      ///< payload length, once header_ is whole
  std::vector<std::uint8_t> payload_;  ///< the payload being assembled
  bool corrupt_ = false;
};

}  // namespace rif::net
