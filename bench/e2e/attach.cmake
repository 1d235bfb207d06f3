# Adds bench/e2e to the repository build without editing it.  Configure
# the repository with
#
#   cmake -S . -B build \
#     -DCMAKE_PROJECT_upin_scion_INCLUDE=$PWD/bench/e2e/attach.cmake
#
# CMake includes this file right after the root project() call, before
# the libraries and the build settings exist, so it defers reading
# CMakeLists.txt here to the end of the root CMakeLists.txt (a deferred
# call may not add a subdirectory, so the target lands in the build's
# top directory).  It is skipped when the build already has the target
# (bench/CMakeLists.txt adding e2e itself).
function(upin_e2e_attach)
  if(NOT TARGET upin_e2e)
    include(${CMAKE_CURRENT_FUNCTION_LIST_DIR}/CMakeLists.txt)
  endif()
endfunction()
cmake_language(DEFER CALL upin_e2e_attach)
