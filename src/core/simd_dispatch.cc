#include "src/core/simd_dispatch.h"

#include <atomic>
#include <string>

namespace deltaclus {

namespace {

#if defined(__x86_64__) || defined(__i386__)
bool CpuHasAvx2() { return __builtin_cpu_supports("avx2") != 0; }
#else
bool CpuHasAvx2() { return false; }
#endif

const SimdKernels& ScalarKernels() {
  static const SimdKernels table = {
      SegPassDenseScalar<false>,
      SegPassDenseScalar<true>,
      SegPassRunScalar<false>,
      SegPassRunScalar<true>,
      ScanPaneRows<SegPassDenseFullScalar<false>, SegPassRunFullScalar<false>>,
      ScanPaneRows<SegPassDenseFullScalar<true>, SegPassRunFullScalar<true>>,
      ScanPaneRowsBatch<SegPassDenseFullScalar<false>,
                        SegPassRunFullScalar<false>>,
      "scalar"};
  return table;
}

// Probed once; the probe itself is free of side effects, so the static
// local's first-use initialization is the only synchronization needed.
const SimdKernels& BestKernels() {
  static const SimdKernels* best = [] {
    if (const SimdKernels* avx2 = Avx2KernelsOrNull();
        avx2 != nullptr && CpuHasAvx2()) {
      return avx2;
    }
    return &ScalarKernels();
  }();
  return *best;
}

// DC_LOCK_FREE: relaxed load/store. The mode is written once at CLI
// startup (or by a test) before any mining threads exist and only read
// afterwards; every table the readers can observe is bit-identical by
// the LaneAcc contract, so no ordering between a write and a racing
// read could change a result even if one occurred.
std::atomic<SimdMode> g_simd_mode{SimdMode::kAuto};

}  // namespace

void SetSimdMode(SimdMode mode) {
  g_simd_mode.store(mode, std::memory_order_relaxed);
}

SimdMode GetSimdMode() { return g_simd_mode.load(std::memory_order_relaxed); }

const SimdKernels& ActiveSimdKernels() {
  return GetSimdMode() == SimdMode::kOff ? ScalarKernels() : BestKernels();
}

const char* ActiveSimdPath() { return ActiveSimdKernels().name; }

const char* DetectedCpuFeatures() {
  static const std::string features = [] {
    std::string s;
    auto add = [&s](const char* name, bool present) {
      if (!present) return;
      if (!s.empty()) s += ',';
      s += name;
    };
#if defined(__x86_64__) || defined(__i386__)
    add("sse2", __builtin_cpu_supports("sse2") != 0);
    add("sse4.2", __builtin_cpu_supports("sse4.2") != 0);
    add("avx", __builtin_cpu_supports("avx") != 0);
    add("avx2", __builtin_cpu_supports("avx2") != 0);
    add("avx512f", __builtin_cpu_supports("avx512f") != 0);
#elif defined(__aarch64__)
    add("neon", true);
#endif
    if (s.empty()) s = "baseline";
    return s;
  }();
  return features.c_str();
}

}  // namespace deltaclus
