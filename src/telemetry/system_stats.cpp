#include "telemetry/system_stats.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/telemetry.h"

#ifdef __linux__
#include <dirent.h>
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace wmlp::telemetry {

namespace {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

#ifdef __linux__

int OpenPerfCounter(uint32_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  // pid=0, cpu=-1: this process, any CPU.
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  return fd < 0 ? -1 : static_cast<int>(fd);
}

bool ReadPerfCounter(int fd, uint64_t* out) {
  if (fd < 0) return false;
  uint64_t value = 0;
  const ssize_t n = read(fd, &value, sizeof(value));
  if (n != static_cast<ssize_t>(sizeof(value))) return false;
  *out = value;
  return true;
}

int64_t CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int64_t count = 0;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  // Subtract ".", "..", and the directory fd opendir itself holds.
  return count > 3 ? count - 3 : 0;
}

// Parses /proc/self/stat fields 14-15 (utime, stime) and 20 (num_threads).
// The comm field (2) can contain spaces, so scan from the ')' terminator.
bool ReadProcStat(double* utime_seconds, double* stime_seconds,
                  int64_t* threads) {
  std::ifstream in("/proc/self/stat");
  if (!in) return false;
  std::string line;
  std::getline(in, line);
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(line.substr(close + 1));
  // Fields after comm: state(3) then numbered per proc(5).
  std::string state;
  fields >> state;
  long long values[18] = {0};
  for (int i = 0; i < 18; ++i) {
    if (!(fields >> values[i])) return false;
  }
  // values[10]=utime(14), values[11]=stime(15), values[16]=num_threads(20).
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  if (tick <= 0) return false;
  *utime_seconds = static_cast<double>(values[10]) / tick;
  *stime_seconds = static_cast<double>(values[11]) / tick;
  *threads = values[16];
  return true;
}

bool ReadProcStatm(double* vm_bytes, double* rss_bytes) {
  std::ifstream in("/proc/self/statm");
  if (!in) return false;
  long long vm_pages = 0, rss_pages = 0;
  if (!(in >> vm_pages >> rss_pages)) return false;
  const double page = static_cast<double>(sysconf(_SC_PAGESIZE));
  *vm_bytes = static_cast<double>(vm_pages) * page;
  *rss_bytes = static_cast<double>(rss_pages) * page;
  return true;
}

#endif  // __linux__

}  // namespace

SystemStatsCollector::SystemStatsCollector() {
#ifdef __linux__
  perf_fds_[0] = OpenPerfCounter(PERF_COUNT_HW_CPU_CYCLES);
  perf_fds_[1] = OpenPerfCounter(PERF_COUNT_HW_INSTRUCTIONS);
  perf_fds_[2] = OpenPerfCounter(PERF_COUNT_HW_CACHE_MISSES);
#endif
}

SystemStatsCollector::~SystemStatsCollector() {
#ifdef __linux__
  for (int fd : perf_fds_) {
    if (fd >= 0) close(fd);
  }
#endif
}

SystemSample SystemStatsCollector::Sample() {
  SystemSample sample;
#ifdef __linux__
  double utime = 0.0, stime = 0.0;
  int64_t threads = 0;
  double vm = 0.0, rss = 0.0;
  if (ReadProcStat(&utime, &stime, &threads) && ReadProcStatm(&vm, &rss)) {
    sample.valid = true;
    sample.utime_seconds = utime;
    sample.stime_seconds = stime;
    sample.threads = threads;
    sample.vm_bytes = vm;
    sample.rss_bytes = rss;
    sample.open_fds = CountOpenFds();
    const double wall = WallSeconds();
    const double cpu = utime + stime;
    {
      MutexLock lock(mu_);
      if (prev_wall_seconds_ >= 0.0 && wall > prev_wall_seconds_) {
        sample.cpu_percent =
            100.0 * (cpu - prev_cpu_seconds_) / (wall - prev_wall_seconds_);
        if (sample.cpu_percent < 0.0) sample.cpu_percent = 0.0;
      }
      prev_cpu_seconds_ = cpu;
      prev_wall_seconds_ = wall;
    }
  }
  uint64_t cycles = 0, instructions = 0, misses = 0;
  if (ReadPerfCounter(perf_fds_[0], &cycles) &&
      ReadPerfCounter(perf_fds_[1], &instructions)) {
    sample.hw.available = true;
    sample.hw.cycles = cycles;
    sample.hw.instructions = instructions;
    // Cache misses are optional (some PMUs lack the generic event).
    if (ReadPerfCounter(perf_fds_[2], &misses)) sample.hw.cache_misses = misses;
  }
#endif
  return sample;
}

void SystemStatsCollector::PublishGauges(const SystemSample& sample) {
  // Runs on the sampler thread at sampling cadence, never on a serve path,
  // so it registers by name on every call.
  if (sample.valid) {
    Registry& reg = Registry::Get();
    reg.GetGauge("wmlp_process_rss_bytes").Set(sample.rss_bytes);
    reg.GetGauge("wmlp_process_vm_bytes").Set(sample.vm_bytes);
    reg.GetGauge("wmlp_process_cpu_percent").Set(sample.cpu_percent);
    reg.GetGauge("wmlp_process_threads")
        .Set(static_cast<double>(sample.threads));
    reg.GetGauge("wmlp_process_open_fds")
        .Set(static_cast<double>(sample.open_fds));
    reg.GetGauge("wmlp_process_utime_seconds").Set(sample.utime_seconds);
    reg.GetGauge("wmlp_process_stime_seconds").Set(sample.stime_seconds);
  }
  if (sample.hw.available) {
    Registry& reg = Registry::Get();
    reg.GetGauge("wmlp_hw_cycles").Set(static_cast<double>(sample.hw.cycles));
    reg.GetGauge("wmlp_hw_instructions")
        .Set(static_cast<double>(sample.hw.instructions));
    reg.GetGauge("wmlp_hw_cache_misses")
        .Set(static_cast<double>(sample.hw.cache_misses));
  }
}

}  // namespace wmlp::telemetry
