// Payload: the unit of data moved through streams, PCIe and memories.
//
// Bandwidth benches move many gigabytes; forcing every byte through real
// vectors would dominate runtime. A Payload therefore carries either real
// bytes (integrity tests, the case-study database records) or a *phantom*
// size-only body (pure bandwidth runs). All data-path components handle both
// transparently; mixing phantom and real data in one store degrades the
// overlapping range to phantom.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/units.hpp"

namespace snacc {

class Payload {
 public:
  Payload() = default;

  /// Size-only payload; contents are unspecified ("phantom").
  static Payload phantom(std::uint64_t size) {
    Payload p;
    p.size_ = size;
    return p;
  }
  static Payload phantom(Bytes size) { return phantom(size.value()); }

  /// Payload owning real bytes.
  static Payload bytes(std::vector<std::byte> data) {
    Payload p;
    p.size_ = data.size();
    p.data_ = std::make_shared<std::vector<std::byte>>(std::move(data));
    return p;
  }

  /// Convenience: payload with a repeating fill pattern (real bytes).
  static Payload filled(std::uint64_t size, std::uint8_t value) {
    std::vector<std::byte> v(size, static_cast<std::byte>(value));
    return bytes(std::move(v));
  }
  static Payload filled(Bytes size, std::uint8_t value) {
    return filled(size.value(), value);
  }

  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool has_data() const { return data_ != nullptr; }

  std::span<const std::byte> view() const {
    assert(has_data());
    return {data_->data(), data_->size()};
  }

  /// Slice [offset, offset+len). Phantom slices stay phantom. Shares the
  /// underlying buffer when possible (copy only on sub-range of real data).
  Payload slice(std::uint64_t offset, std::uint64_t len) const {
    assert(offset + len <= size_);
    if (!has_data()) return phantom(len);
    if (offset == 0 && len == size_) return *this;
    std::vector<std::byte> v(data_->begin() + static_cast<std::ptrdiff_t>(offset),
                             data_->begin() + static_cast<std::ptrdiff_t>(offset + len));
    return bytes(std::move(v));
  }
  Payload slice(Bytes offset, Bytes len) const {
    return slice(offset.value(), len.value());
  }

  /// Concatenates two payloads; phantom-ness is contagious.
  static Payload concat(const Payload& a, const Payload& b) {
    if (!a.has_data() || !b.has_data()) return phantom(a.size_ + b.size_);
    std::vector<std::byte> v;
    v.reserve(a.size_ + b.size_);
    v.insert(v.end(), a.data_->begin(), a.data_->end());
    v.insert(v.end(), b.data_->begin(), b.data_->end());
    return bytes(std::move(v));
  }

  /// Concatenates many parts in one pass (linear, unlike repeated concat).
  /// Any phantom part degrades the whole result to phantom; a lone part is
  /// returned as is, sharing its buffer.
  static Payload gather(const std::vector<Payload>& parts) {
    if (parts.size() == 1) return parts.front();
    std::uint64_t total = 0;
    bool real = true;
    for (const Payload& p : parts) {
      total += p.size();
      real = real && (p.has_data() || p.empty());
    }
    if (!real) return phantom(total);
    std::vector<std::byte> v;
    v.reserve(total);
    for (const Payload& p : parts) {
      if (p.empty()) continue;
      auto view = p.view();
      v.insert(v.end(), view.begin(), view.end());
    }
    return bytes(std::move(v));
  }

  bool content_equals(const Payload& other) const {
    if (size_ != other.size_) return false;
    if (!has_data() || !other.has_data()) return true;  // phantom matches anything
    return *data_ == *other.data_;
  }

 private:
  std::uint64_t size_ = 0;
  std::shared_ptr<std::vector<std::byte>> data_;
};

}  // namespace snacc
