#include "net/pcap_mmap.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "net/pcap.h"
#include "util/failpoint.h"

#if defined(__unix__) || defined(__APPLE__)
#define RLOOP_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace rloop::net {

namespace {

constexpr std::size_t kFileHeaderSize = 24;
constexpr std::size_t kRecordHeaderSize = 16;
constexpr std::size_t kEthernetHeaderSize = 14;
constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
constexpr std::uint32_t kMaxRecordLength = 1u << 20;

std::uint32_t get_u32(const std::byte* p, bool swapped) {
  const auto b = [p](std::size_t i) {
    return std::uint32_t{std::to_integer<std::uint8_t>(p[i])};
  };
  if (swapped) return (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

std::uint16_t get_u16be(const std::byte* p) {
  return static_cast<std::uint16_t>(
      (std::uint16_t{std::to_integer<std::uint8_t>(p[0])} << 8) |
      std::uint16_t{std::to_integer<std::uint8_t>(p[1])});
}

// Records in `data` past the file header, counted from the record headers
// alone: the walk stops exactly where parse_pcap_buffer's loop stops (short
// header, short body, implausible length) and never throws, so the caller
// can size the trace once before the real pass. Ethernet records the real
// pass skips are counted too, so this is an upper bound.
std::size_t count_records(std::span<const std::byte> data, bool swapped) {
  std::size_t count = 0;
  std::size_t off = kFileHeaderSize;
  while (data.size() - off >= kRecordHeaderSize) {
    const std::uint32_t cap_len = get_u32(data.data() + off + 8, swapped);
    if (cap_len > kMaxRecordLength) break;
    off += kRecordHeaderSize;
    if (data.size() - off < cap_len) break;
    off += cap_len;
    ++count;
  }
  return count;
}

}  // namespace

void (*pcap_mmap_test_hook)() = nullptr;

Trace parse_pcap_buffer(std::span<const std::byte> data,
                        const std::string& source_name,
                        telemetry::Registry* registry) {
  telemetry::Counter* m_records = telemetry::get_counter(
      registry, "rloop_pcap_records_total", {},
      "pcap records read into the trace");
  telemetry::Counter* m_skipped_short = telemetry::get_counter(
      registry, "rloop_pcap_records_skipped_total",
      {{"reason", "short_ethernet"}}, "pcap records skipped while reading");
  telemetry::Counter* m_skipped_non_ipv4 = telemetry::get_counter(
      registry, "rloop_pcap_records_skipped_total", {{"reason", "non_ipv4"}},
      "pcap records skipped while reading");
  telemetry::Counter* m_truncated = telemetry::get_counter(
      registry, "rloop_pcap_truncated_records_total", {},
      "pcap records dropped because the capture ended mid-record");

  if (data.size() < kFileHeaderSize) {
    throw std::runtime_error("read_pcap: truncated file header");
  }
  const std::byte* fh = data.data();

  const std::uint32_t magic_le = get_u32(fh, /*swapped=*/false);
  const std::uint32_t magic_be = get_u32(fh, /*swapped=*/true);
  bool swapped = false;
  bool nanos = false;
  if (magic_le == kPcapMagicMicros) {
    nanos = false;
  } else if (magic_le == kPcapMagicNanos) {
    nanos = true;
  } else if (magic_be == kPcapMagicMicros) {
    swapped = true;
  } else if (magic_be == kPcapMagicNanos) {
    swapped = true;
    nanos = true;
  } else {
    throw std::runtime_error("read_pcap: bad magic in " + source_name);
  }

  const std::uint32_t linktype = get_u32(fh + 20, swapped);
  if (linktype != kLinktypeRaw && linktype != kLinktypeEthernet) {
    throw std::runtime_error("read_pcap: unsupported linktype " +
                             std::to_string(linktype));
  }

  Trace trace(source_name, 0);
  trace.reserve(count_records(data, swapped));
  bool have_epoch = false;
  TimeNs last_ts = 0;
  std::size_t off = kFileHeaderSize;

  while (off < data.size()) {
    if (data.size() - off < kRecordHeaderSize) {
      // The capture ends mid-header (killed tcpdump, full disk): keep what
      // was read and count the remnant instead of failing the whole trace.
      telemetry::inc(m_truncated);
      break;
    }
    const std::byte* rh = data.data() + off;
    const std::uint32_t sec = get_u32(rh, swapped);
    const std::uint32_t frac = get_u32(rh + 4, swapped);
    const std::uint32_t cap_len = get_u32(rh + 8, swapped);
    const std::uint32_t wire_len = get_u32(rh + 12, swapped);
    if (cap_len > kMaxRecordLength) {
      throw std::runtime_error("read_pcap: implausible record length");
    }
    off += kRecordHeaderSize;
    if (data.size() - off < cap_len) {
      telemetry::inc(m_truncated);
      break;
    }
    const std::byte* pkt = data.data() + off;
    std::size_t pkt_len = cap_len;
    off += cap_len;

    if (!have_epoch) {
      trace.set_epoch_unix_s(static_cast<std::int64_t>(sec));
      have_epoch = true;
    }
    const std::int64_t frac_ns = nanos ? frac : std::int64_t{frac} * 1000;
    TimeNs ts = (static_cast<std::int64_t>(sec) - trace.epoch_unix_s()) *
                    kSecond +
                frac_ns;
    // Tolerate mild reordering in foreign captures: the in-memory trace is
    // timestamp-ordered by contract.
    if (ts < last_ts) ts = last_ts;
    last_ts = ts;

    std::uint32_t pkt_wire_len = wire_len;
    if (linktype == kLinktypeEthernet) {
      if (pkt_len < kEthernetHeaderSize) {
        telemetry::inc(m_skipped_short);
        continue;
      }
      if (get_u16be(pkt + 12) != kEtherTypeIpv4) {
        telemetry::inc(m_skipped_non_ipv4);
        continue;
      }
      pkt += kEthernetHeaderSize;
      pkt_len -= kEthernetHeaderSize;
      pkt_wire_len = pkt_wire_len >= kEthernetHeaderSize
                         ? pkt_wire_len - kEthernetHeaderSize
                         : 0;
    }
    telemetry::inc(m_records);
    trace.add(ts, std::span<const std::byte>(pkt, pkt_len), pkt_wire_len);
  }
  return trace;
}

#if defined(RLOOP_HAVE_MMAP)

std::optional<Trace> read_pcap_mmap(const std::string& path,
                                    telemetry::Registry* registry) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("read_pcap: cannot open " + path);

  // Injected mmap failure: report the path unavailable so the caller takes
  // the ifstream fallback, exactly like a real mmap refusal.
  if (RLOOP_FAILPOINT("pcap.mmap")) {
    ::close(fd);
    return std::nullopt;
  }

  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return std::nullopt;  // pipe/socket/device: fall back to streaming
  }
  if (st.st_size == 0) {
    ::close(fd);
    throw std::runtime_error("read_pcap: truncated file header");
  }

  const auto size = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map == MAP_FAILED) {
    ::close(fd);
    return std::nullopt;
  }
#if defined(MADV_SEQUENTIAL)
  ::madvise(map, size, MADV_SEQUENTIAL);
#endif

  if (pcap_mmap_test_hook) pcap_mmap_test_hook();

  // A writer may have truncated the file between open and here (rotating
  // capture tooling does exactly this). Pages past the new EOF are no
  // longer backed — touching them raises SIGBUS, not a read error — so
  // re-check the size while the fd is still open and parse only the span
  // the file still covers; the parser then counts the cut as an ordinary
  // truncated record instead of the process dying mid-read.
  std::size_t effective = size;
  struct stat st2{};
  if (::fstat(fd, &st2) == 0 && S_ISREG(st2.st_mode)) {
    effective = std::min(size, static_cast<std::size_t>(st2.st_size));
  }
  ::close(fd);  // the mapping keeps the file alive

  try {
    Trace trace = parse_pcap_buffer(
        std::span<const std::byte>(static_cast<const std::byte*>(map),
                                   effective),
        "pcap:" + path, registry);
    ::munmap(map, size);
    return trace;
  } catch (...) {
    ::munmap(map, size);
    throw;
  }
}

#else  // !RLOOP_HAVE_MMAP

std::optional<Trace> read_pcap_mmap(const std::string&,
                                    telemetry::Registry*) {
  return std::nullopt;
}

#endif

Trace read_pcap_fast(const std::string& path, telemetry::Registry* registry) {
  if (auto trace = read_pcap_mmap(path, registry)) {
    return *std::move(trace);
  }
  return read_pcap(path, registry);
}

}  // namespace rloop::net
