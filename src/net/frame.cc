#include "net/frame.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "support/check.h"

namespace rif::net {

namespace {

/// Up-front reservation cap for one payload. The length comes from the
/// peer, so a hostile header must not reserve a gigabyte by itself; a
/// larger payload grows the buffer as its bytes actually arrive.
constexpr std::size_t kMaxPayloadReserve = std::size_t{1} << 24;  // 16 MiB

// The header is explicitly little-endian so the magic/length check behaves
// identically on any host; a mixed-endian peer then fails fast inside the
// envelope's bounds checks instead of desyncing the frame stream.
void put_u32_le(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v & 0xFF);
  out[1] = static_cast<std::uint8_t>((v >> 8) & 0xFF);
  out[2] = static_cast<std::uint8_t>((v >> 16) & 0xFF);
  out[3] = static_cast<std::uint8_t>((v >> 24) & 0xFF);
}

std::uint32_t get_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

FrameHeader frame_header(std::size_t payload_bytes) {
  RIF_CHECK_MSG(payload_bytes <= kMaxFramePayload, "frame payload too large");
  FrameHeader h{};
  put_u32_le(h.data(), kFrameMagic);
  put_u32_le(h.data() + sizeof(std::uint32_t),
             static_cast<std::uint32_t>(payload_bytes));
  return h;
}

std::vector<std::uint8_t> encode_frame(
    const std::vector<std::uint8_t>& payload) {
  const FrameHeader header = frame_header(payload.size());
  std::vector<std::uint8_t> out(framed_size(payload.size()));
  std::memcpy(out.data(), header.data(), header.size());
  if (!payload.empty()) {
    std::memcpy(out.data() + header.size(), payload.data(), payload.size());
  }
  return out;
}

bool FrameAssembler::feed(const std::uint8_t* data, std::size_t n,
                          const Sink& sink) {
  if (corrupt_) return false;
  while (n > 0) {
    if (header_bytes_ < kFrameHeaderBytes) {
      const std::size_t take = std::min(n, kFrameHeaderBytes - header_bytes_);
      std::memcpy(header_.data() + header_bytes_, data, take);
      header_bytes_ += take;
      data += take;
      n -= take;
      if (header_bytes_ < kFrameHeaderBytes) break;
      const std::uint32_t magic = get_u32_le(header_.data());
      length_ = get_u32_le(header_.data() + sizeof(std::uint32_t));
      if (magic != kFrameMagic || length_ > kMaxFramePayload) {
        corrupt_ = true;
        header_bytes_ = 0;
        payload_ = {};
        return false;
      }
      payload_.reserve(std::min<std::size_t>(length_, kMaxPayloadReserve));
    }
    // Falls through with n == 0 when a header completes a zero-length frame.
    const std::size_t take = std::min<std::size_t>(n, length_ - payload_.size());
    payload_.insert(payload_.end(), data, data + take);
    data += take;
    n -= take;
    if (payload_.size() == length_) {
      header_bytes_ = 0;
      sink(std::exchange(payload_, {}));
    }
  }
  return true;
}

}  // namespace rif::net
