# Shared compiler hygiene for every ptrng target.
#
# Defines the INTERFACE target `ptrng_compile_options` carrying warning
# flags and (optionally) sanitizer instrumentation, and the helper
# `ptrng_add_module(<name> <sources...>)` used by the per-module
# CMakeLists under src/.

add_library(ptrng_compile_options INTERFACE)

if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
  target_compile_options(ptrng_compile_options INTERFACE -Wall -Wextra)
  # Deprecation hygiene: an unconditional error even when PTRNG_WERROR
  # is off, so anything marked [[deprecated]] in future can never gain
  # an in-repo caller — a deprecated API only loses callers until it is
  # deleted.
  target_compile_options(ptrng_compile_options INTERFACE
    -Werror=deprecated-declarations)
elseif(MSVC)
  target_compile_options(ptrng_compile_options INTERFACE /W4)
endif()

# PTRNG_WERROR=ON (the CI default) promotes warnings to errors for every
# ptrng target; third-party code built via FetchContent/add_subdirectory
# keeps its own flags.
option(PTRNG_WERROR "Treat compiler warnings as errors for ptrng targets" OFF)
if(PTRNG_WERROR)
  if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
    target_compile_options(ptrng_compile_options INTERFACE -Werror)
  elseif(MSVC)
    target_compile_options(ptrng_compile_options INTERFACE /WX)
  endif()
endif()

# common/parallel.cpp needs the platform thread library; every target that
# links the ptrng objects inherits it from here.
find_package(Threads REQUIRED)
target_link_libraries(ptrng_compile_options INTERFACE Threads::Threads)

# PTRNG_SANITIZE=address,undefined (any comma-separated -fsanitize= set).
if(PTRNG_SANITIZE)
  if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
    target_compile_options(ptrng_compile_options INTERFACE
      -fsanitize=${PTRNG_SANITIZE} -fno-omit-frame-pointer)
    target_link_options(ptrng_compile_options INTERFACE
      -fsanitize=${PTRNG_SANITIZE})
    message(STATUS "ptrng: sanitizers enabled: ${PTRNG_SANITIZE}")
  else()
    message(WARNING "PTRNG_SANITIZE is only supported with GCC/Clang")
  endif()
endif()

# ptrng_add_module(<name> <sources...>)
#
# Creates the OBJECT library ptrng_<name>. Objects from every module are
# merged into the single static library `ptrng` by src/CMakeLists.txt;
# the module list is accumulated in the global property PTRNG_MODULES.
function(ptrng_add_module name)
  set(target ptrng_${name})
  add_library(${target} OBJECT ${ARGN})
  target_include_directories(${target} PUBLIC "${PROJECT_SOURCE_DIR}/src")
  target_link_libraries(${target} PUBLIC ptrng_compile_options)
  set_property(GLOBAL APPEND PROPERTY PTRNG_MODULES ${target})
endfunction()
