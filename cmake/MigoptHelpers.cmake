# Shared target-definition helpers so every layer/test/bench/example list
# stays declarative: sources + dependencies, nothing else.

# migopt_add_layer(<name> SOURCES <src...> [DEPS <layer...>])
#
# Defines the static library `migopt_<name>` with alias `migopt::<name>`.
# Layers publish the repo-root `src/` include directory, so all code uses
# the canonical `#include "layer/header.hpp"` spelling. DEPS are PUBLIC:
# linking against a layer transitively provides everything below it.
#
# -ffp-contract=off is PUBLIC too: GCC otherwise fuses a*b+c into an FMA
# wherever the target ISA has one (-march=native on x86-64), and two copies
# of one formula may then fuse differently and disagree in their last bits.
# Every consumer of a layer (tests, benches, examples, the perfbench harness,
# an installed package's users) compiles header code the way the libraries
# were compiled. On baseline x86-64, which has no FMA, the flag changes
# nothing.
function(migopt_add_layer name)
  cmake_parse_arguments(ARG "" "" "SOURCES;DEPS" ${ARGN})
  set(target migopt_${name})
  add_library(${target} STATIC ${ARG_SOURCES})
  add_library(migopt::${name} ALIAS ${target})
  target_include_directories(${target} PUBLIC
    $<BUILD_INTERFACE:${PROJECT_SOURCE_DIR}/src>
    $<INSTALL_INTERFACE:include/migopt>)
  target_link_libraries(${target} PRIVATE migopt::build_flags)
  target_compile_options(${target} PUBLIC -ffp-contract=off)
  foreach(dep IN LISTS ARG_DEPS)
    target_link_libraries(${target} PUBLIC migopt::${dep})
  endforeach()
  set_target_properties(${target} PROPERTIES EXPORT_NAME ${name})
  install(TARGETS ${target}
    EXPORT migoptTargets
    ARCHIVE DESTINATION ${CMAKE_INSTALL_LIBDIR})
endfunction()

# migopt_add_test_suite(<label> SOURCES <src...> DEPS <layer...>)
#
# One test executable per tests/ subdirectory. Each GoogleTest case is
# registered individually with ctest and carries the directory label, so
# `ctest -L core` runs exactly that layer's suite.
function(migopt_add_test_suite label)
  cmake_parse_arguments(ARG "" "" "SOURCES;DEPS" ${ARGN})
  set(target migopt_test_${label})
  add_executable(${target} ${ARG_SOURCES})
  target_include_directories(${target} PRIVATE ${PROJECT_SOURCE_DIR}/tests)
  foreach(dep IN LISTS ARG_DEPS)
    target_link_libraries(${target} PRIVATE migopt::${dep})
  endforeach()
  target_link_libraries(${target} PRIVATE GTest::gtest_main migopt::build_flags)
  gtest_discover_tests(${target}
    DISCOVERY_TIMEOUT 120
    PROPERTIES LABELS ${label} TIMEOUT 900)
endfunction()

# migopt_add_bench(<name>)  — one paper-figure/ablation binary from <name>.cpp.
# Benches register scenarios with migopt::report and delegate main() to its
# shared CLI harness (--json/--filter/--list/--threads).
function(migopt_add_bench name)
  add_executable(${name} ${name}.cpp)
  target_link_libraries(${name} PRIVATE migopt::report migopt::build_flags)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bin)
  install(TARGETS ${name} RUNTIME DESTINATION ${CMAKE_INSTALL_BINDIR}/bench)
endfunction()

# migopt_add_example(<name> [SMOKE_TEST])
#
# One example binary from <name>.cpp. SMOKE_TEST also registers the binary
# with ctest under the `examples` label (60 s budget) so example bit-rot
# fails CI instead of surprising users.
function(migopt_add_example name)
  cmake_parse_arguments(ARG "SMOKE_TEST" "" "" ${ARGN})
  add_executable(${name} ${name}.cpp)
  target_link_libraries(${name} PRIVATE migopt::sched migopt::nvmlsim
    migopt::build_flags)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bin)
  install(TARGETS ${name} RUNTIME DESTINATION ${CMAKE_INSTALL_BINDIR})
  if(ARG_SMOKE_TEST)
    add_test(NAME examples.${name} COMMAND ${name})
    set_tests_properties(examples.${name} PROPERTIES
      LABELS examples TIMEOUT 60)
  endif()
endfunction()

# migopt_provide_gtest()
#
# Prefer the system GoogleTest (config then module mode); fall back to
# FetchContent for machines without it. The fallback needs network access,
# so offline builds should install libgtest-dev instead.
macro(migopt_provide_gtest)
  find_package(GTest CONFIG QUIET)
  if(NOT TARGET GTest::gtest_main)
    find_package(GTest QUIET)
  endif()
  if(NOT TARGET GTest::gtest_main)
    message(STATUS "System GoogleTest not found — fetching v1.14.0")
    include(FetchContent)
    FetchContent_Declare(googletest
      URL https://github.com/google/googletest/archive/refs/tags/v1.14.0.tar.gz
      URL_HASH SHA256=8ad598c73ad796e0d8280b082cebd82a630d73e73cd3c70057938a6501bba5d7
      DOWNLOAD_EXTRACT_TIMESTAMP TRUE)
    set(INSTALL_GTEST OFF CACHE BOOL "" FORCE)
    set(gtest_force_shared_crt ON CACHE BOOL "" FORCE)
    FetchContent_MakeAvailable(googletest)
  endif()
endmacro()
