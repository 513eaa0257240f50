// Byte-size helpers, formatting and the byte-buffer type used throughout the
// storage stack.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace msra {

inline constexpr std::uint64_t kKiB = 1024ull;
inline constexpr std::uint64_t kMiB = 1024ull * kKiB;
inline constexpr std::uint64_t kGiB = 1024ull * kMiB;

namespace literals {
constexpr std::uint64_t operator""_KiB(unsigned long long v) { return v * kKiB; }
constexpr std::uint64_t operator""_MiB(unsigned long long v) { return v * kMiB; }
constexpr std::uint64_t operator""_GiB(unsigned long long v) { return v * kGiB; }
}  // namespace literals

/// Formats a byte count as a human-readable string ("8.0 MiB").
std::string format_bytes(std::uint64_t bytes);

/// An allocator whose value-less construct() default-initializes: resizing a
/// container of trivial elements leaves the new elements uninitialized
/// instead of zero-filling them. Construction with a value (resize(n, v),
/// assign, insert) still writes that value.
template <typename T, typename Base = std::allocator<T>>
class DefaultInitAllocator : public Base {
  using Traits = std::allocator_traits<Base>;

 public:
  template <typename U>
  struct rebind {
    using other =
        DefaultInitAllocator<U, typename Traits::template rebind_alloc<U>>;
  };

  using Base::Base;

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    Traits::construct(static_cast<Base&>(*this), p, std::forward<Args>(args)...);
  }
};

/// The byte buffer of the data plane: wire messages and every payload
/// buffer that is overwritten in full before it is read. resize() does not
/// zero-fill, so each payload byte is written once, by its producer; code
/// that resizes one must write every new byte before the buffer is sent,
/// stored or hashed.
using ByteBuffer = std::vector<std::byte, DefaultInitAllocator<std::byte>>;

}  // namespace msra
