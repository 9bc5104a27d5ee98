# Fails when a src/hbosim/<module>/<name>.hpp has no includer outside
# tests: a header whose only users are its own .cpp and the test suite is
# a subsystem no product path reaches. Includers that count are every file
# under src/ except the header's own .cpp, and examples/, bench/ and
# fleetbench/.
#
#   cmake -DROOT=<repo root> -P header_reach.cmake

if(NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<repo root> -P header_reach.cmake")
endif()

file(GLOB headers RELATIVE ${ROOT}/src ${ROOT}/src/hbosim/*/*.hpp)
file(GLOB_RECURSE includers
     ${ROOT}/src/*.cpp ${ROOT}/src/*.hpp
     ${ROOT}/examples/*.cpp ${ROOT}/examples/*.hpp
     ${ROOT}/bench/*.cpp ${ROOT}/bench/*.hpp
     ${ROOT}/fleetbench/*.cpp ${ROOT}/fleetbench/*.hpp)
if(NOT headers)
  message(FATAL_ERROR "no headers under ${ROOT}/src/hbosim")
endif()

# reached_<header> is set once some file other than the header's own .cpp
# includes it.
foreach(file IN LISTS includers)
  file(STRINGS ${file} lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"hbosim/")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^[^\"]*\"([^\"]+)\".*$" "\\1" header "${line}")
    string(REGEX REPLACE "\\.hpp$" ".cpp" own_cpp "${ROOT}/src/${header}")
    if(NOT file STREQUAL own_cpp)
      string(MAKE_C_IDENTIFIER "${header}" key)
      set(reached_${key} TRUE)
    endif()
  endforeach()
endforeach()

set(unreached "")
foreach(header IN LISTS headers)
  string(MAKE_C_IDENTIFIER "${header}" key)
  if(NOT reached_${key})
    list(APPEND unreached ${header})
  endif()
endforeach()

list(LENGTH headers n_headers)
if(unreached)
  list(JOIN unreached "\n  " listing)
  message(FATAL_ERROR
          "headers with no includer outside tests and their own .cpp:\n"
          "  ${listing}\n"
          "Delete the subsystem, or call it from a product path.")
endif()
message(STATUS "all ${n_headers} src/hbosim headers have a product includer")
