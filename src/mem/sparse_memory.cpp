#include "mem/sparse_memory.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace snacc::mem {

SparseMemory::Page& SparseMemory::page_for(std::uint64_t page_index) {
  auto [it, inserted] = pages_.try_emplace(page_index);
  if (inserted) it->second.assign(kPageSize, std::byte{0});
  return it->second;
}

void SparseMemory::write(std::uint64_t addr, const Payload& p) {
  assert(addr + p.size() <= size_ && "write out of memory bounds");
  bytes_written_ += p.size();
  if (!p.has_data()) {
    // Phantom write: drop any stale real contents in range so a later read
    // cannot return bytes that were never actually preserved.
    if (p.size() == 0) return;
    const std::uint64_t first = addr / kPageSize;
    const std::uint64_t last = (addr + p.size() - 1) / kPageSize;
    for (std::uint64_t pg = first; pg <= last && !pages_.empty(); ++pg) {
      pages_.erase(pg);
    }
    return;
  }
  auto bytes = p.view();
  std::uint64_t off = 0;
  while (off < bytes.size()) {
    const std::uint64_t a = addr + off;
    const std::uint64_t pg = a / kPageSize;
    const std::uint64_t in_page = a % kPageSize;
    const std::uint64_t n =
        std::min<std::uint64_t>(kPageSize - in_page, bytes.size() - off);
    Page& page = page_for(pg);
    std::memcpy(page.data() + in_page, bytes.data() + off, n);
    off += n;
  }
}

Payload SparseMemory::read(std::uint64_t addr, std::uint64_t len) const {
  assert(addr + len <= size_ && "read out of memory bounds");
  bytes_read_ += len;
  if (len == 0) return Payload{};
  // One lookup per page; any missing page makes the whole read phantom.
  // The output is reserved only once the first page is found, so a
  // phantom read allocates nothing.
  std::vector<std::byte> out;
  std::uint64_t in_page = addr % kPageSize;
  for (std::uint64_t pg = addr / kPageSize; out.size() < len; ++pg) {
    const auto it = pages_.find(pg);
    if (it == pages_.end()) return Payload::phantom(len);
    if (out.empty()) out.reserve(len);
    const std::byte* src = it->second.data() + in_page;
    const std::uint64_t n =
        std::min<std::uint64_t>(kPageSize - in_page, len - out.size());
    out.insert(out.end(), src, src + n);
    in_page = 0;
  }
  return Payload::bytes(std::move(out));
}

void SparseMemory::fill(std::uint64_t addr, std::uint64_t len, std::uint8_t value) {
  write(addr, Payload::filled(len, value));
}

}  // namespace snacc::mem
