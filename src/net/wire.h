// Wire-format serialization for the SRB-like client/server protocol.
//
// Little-endian, length-prefixed primitives. Requests and responses are real
// byte buffers (ByteBuffer), so the protocol layer is genuinely exercised even
// though transport is in-process. A payload is copied once per hop: the
// writer copies it into the message (put_bytes) or hands its bytes to the
// producer to fill in place (put_bytes_in_place); the reader hands out a view
// into the message (get_bytes_view) or copies it straight into the consumer's
// buffer (get_bytes_into).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace msra::net {

/// Appends primitives to a growing byte buffer.
class WireWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void put_u16(std::uint16_t v) { put_raw(&v, sizeof(v)); }
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof(v)); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof(v)); }
  void put_i64(std::int64_t v) { put_raw(&v, sizeof(v)); }
  void put_f64(double v) { put_raw(&v, sizeof(v)); }

  void put_string(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  }

  void put_bytes(std::span<const std::byte> data) {
    put_u64(data.size());
    put_raw(data.data(), data.size());
  }

  /// Appends the length prefix of an `n`-byte payload and returns the
  /// payload's bytes for its producer to fill in place. They are not
  /// zero-filled: every one must be written before the message is sent.
  /// The span is valid until the next put_* or take().
  std::span<std::byte> put_bytes_in_place(std::uint64_t n) {
    put_u64(n);
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return std::span<std::byte>(buf_).subspan(at);
  }

  ByteBuffer take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void put_raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  ByteBuffer buf_;
};

/// Consumes primitives from a byte buffer; all getters fail with
/// kOutOfRange on truncated input, including a length prefix larger than
/// what is left of the message (no UB and no exception on malformed
/// messages). Lengths are compared against remaining(), never added to the
/// position, so a prefix near 2^64 cannot wrap past the check.
class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> data) : data_(data) {}

  StatusOr<std::uint8_t> get_u8() { return get_scalar<std::uint8_t>(); }
  StatusOr<std::uint16_t> get_u16() { return get_scalar<std::uint16_t>(); }
  StatusOr<std::uint32_t> get_u32() { return get_scalar<std::uint32_t>(); }
  StatusOr<std::uint64_t> get_u64() { return get_scalar<std::uint64_t>(); }
  StatusOr<std::int64_t> get_i64() { return get_scalar<std::int64_t>(); }
  StatusOr<double> get_f64() { return get_scalar<double>(); }

  StatusOr<std::string> get_string() {
    MSRA_ASSIGN_OR_RETURN(std::uint32_t n, get_u32());
    if (n > remaining()) return StatusOr<std::string>(truncated());
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// A view of the next byte payload inside the message (no copy); valid
  /// as long as the message buffer is.
  StatusOr<std::span<const std::byte>> get_bytes_view() {
    MSRA_ASSIGN_OR_RETURN(std::uint64_t n, get_u64());
    if (n > remaining()) {
      return StatusOr<std::span<const std::byte>>(truncated());
    }
    const std::span<const std::byte> view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

  /// An owned copy of the next byte payload, for values that outlive the
  /// message (e.g. decoded table cells).
  StatusOr<std::vector<std::byte>> get_bytes() {
    MSRA_ASSIGN_OR_RETURN(std::span<const std::byte> view, get_bytes_view());
    return std::vector<std::byte>(view.begin(), view.end());
  }

  /// Copies the next byte payload straight into `out`, whose size must
  /// match the payload's.
  Status get_bytes_into(std::span<std::byte> out) {
    MSRA_ASSIGN_OR_RETURN(std::uint64_t n, get_u64());
    if (n != out.size()) return Status::InvalidArgument("payload size mismatch");
    if (n > remaining()) return truncated();
    // n == 0 with an empty span: out.data() may be null.
    if (n != 0) std::memcpy(out.data(), data_.data() + pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  StatusOr<T> get_scalar() {
    if (sizeof(T) > remaining()) return StatusOr<T>(truncated());
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  static Status truncated() {
    return Status::OutOfRange("truncated wire message");
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace msra::net
