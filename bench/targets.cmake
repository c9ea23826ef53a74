# Benchmark targets, included from the top-level CMakeLists so that
# ${CMAKE_BINARY_DIR}/bench contains ONLY runnable bench binaries
# (the canonical runner is `for b in build/bench/*; do $b; done`).

set(BBA_BENCH_DIR "${CMAKE_SOURCE_DIR}/bench")

# Figure/table reproduction harnesses: plain executables, one per paper
# experiment, each printing the paper's series as ASCII tables + CSV.
file(GLOB BBA_FIG_BENCHES CONFIGURE_DEPENDS
     "${BBA_BENCH_DIR}/fig*.cpp"
     "${BBA_BENCH_DIR}/table*.cpp"
     "${BBA_BENCH_DIR}/ablation*.cpp"
     "${BBA_BENCH_DIR}/stream*.cpp"
     "${BBA_BENCH_DIR}/bandwidth*.cpp"
     "${BBA_BENCH_DIR}/adversarial*.cpp"
     "${BBA_BENCH_DIR}/scenario*.cpp")
foreach(bench_src ${BBA_FIG_BENCHES})
  get_filename_component(bench_name ${bench_src} NAME_WE)
  add_executable(${bench_name} ${bench_src} ${BBA_BENCH_DIR}/bench_common.cpp)
  target_link_libraries(${bench_name} PRIVATE bba)
  set_target_properties(${bench_name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/bench")
endforeach()

# Runtime microbenchmarks (google-benchmark). perf_micro defines its own
# main (observability setup), so it links benchmark, not benchmark_main.
add_executable(perf_micro ${BBA_BENCH_DIR}/perf_micro.cpp)
target_link_libraries(perf_micro PRIVATE bba benchmark::benchmark)
# The bba library's own build type, published into the benchmark JSON
# context as "bba_build_type" (the system libbenchmark hardcodes ITS build
# type as "library_build_type", which is useless for gating our numbers).
target_compile_definitions(perf_micro PRIVATE
  BBA_BUILD_TYPE="$<LOWER_CASE:$<CONFIG>>")
set_target_properties(perf_micro PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/bench")

# Fleet-scale service benchmark (google-benchmark, manual per-frame timing):
# peers x recover-budget sweep emitting fps / p50 / p99 / coverage / shed.
add_executable(fleet_scale ${BBA_BENCH_DIR}/fleet_scale.cpp
  ${BBA_BENCH_DIR}/bench_common.cpp)
target_link_libraries(fleet_scale PRIVATE bba benchmark::benchmark)
target_compile_definitions(fleet_scale PRIVATE
  BBA_BUILD_TYPE="$<LOWER_CASE:$<CONFIG>>")
set_target_properties(fleet_scale PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/bench")

# Fleet-churn lifecycle benchmark (google-benchmark, manual per-frame
# timing): rotating peers contending for a smaller session table, emitting
# eviction / reaper / readmission tallies alongside fps / p50 / p99.
add_executable(fleet_churn ${BBA_BENCH_DIR}/fleet_churn.cpp
  ${BBA_BENCH_DIR}/bench_common.cpp)
target_link_libraries(fleet_churn PRIVATE bba benchmark::benchmark)
target_compile_definitions(fleet_churn PRIVATE
  BBA_BUILD_TYPE="$<LOWER_CASE:$<CONFIG>>")
set_target_properties(fleet_churn PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/bench")

# Keyframe map benchmark (google-benchmark, manual timing): index
# build/query latency vs store size (4 -> 4096 keyframes) plus
# relocalization latency / coverage on scenario-matrix worlds.
add_executable(map_reloc ${BBA_BENCH_DIR}/map_reloc.cpp
  ${BBA_BENCH_DIR}/bench_common.cpp)
target_link_libraries(map_reloc PRIVATE bba benchmark::benchmark)
target_compile_definitions(map_reloc PRIVATE
  BBA_BUILD_TYPE="$<LOWER_CASE:$<CONFIG>>")
set_target_properties(map_reloc PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/bench")

# `cmake --build <dir> --target run_perf` runs the suite and distills
# BENCH_PR1.json at the repo root (serial vs. threaded ns/op per stage).
add_custom_target(run_perf
  COMMAND ${BBA_BENCH_DIR}/run_perf.sh ${CMAKE_BINARY_DIR}
  DEPENDS perf_micro
  WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
  COMMENT "Running perf_micro and distilling BENCH_PR1.json"
  USES_TERMINAL)
