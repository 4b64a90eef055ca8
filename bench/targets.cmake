# Benchmark binaries. Included from the top-level CMakeLists (not via
# add_subdirectory) so ${CMAKE_BINARY_DIR}/bench contains ONLY the bench
# executables and `for b in build/bench/*; do $b; done` runs them all.
function(pcxx_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE
    pcxx_scf pcxx_ds pcxx_coll pcxx_pfs pcxx_rt pcxx_obs pcxx_util
    benchmark::benchmark)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

pcxx_add_bench(table1_paragon4)
pcxx_add_bench(table2_paragon8)
pcxx_add_bench(table3_sgi_uni)
pcxx_add_bench(table4_sgi8)
pcxx_add_bench(figure5_all)
pcxx_add_bench(ablation_read_vs_unsorted)
pcxx_add_bench(ablation_header_strategy)
pcxx_add_bench(ablation_redist)
pcxx_add_bench(ablation_interleave)
pcxx_add_bench(ablation_stripe_sweep)
pcxx_add_bench(micro_benchmarks)
pcxx_add_bench(ablation_checksum)
pcxx_add_bench(ablation_overlap)
pcxx_add_bench(ablation_index)
pcxx_add_bench(ablation_codec)
