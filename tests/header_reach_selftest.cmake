# Drives header_reach.cmake over a small synthetic repo so the guard's
# own rules are pinned, not just today's tree. CASE picks the tree:
#
#   orphan    a header nothing includes           -> guard fails, names it
#   own_cpp   a header only its own .cpp includes -> guard fails, names it
#   reached   headers included by another src/ file, an example, a bench
#             and a fleetbench file               -> guard passes
#
#   cmake -DSCRIPT=<header_reach.cmake> -DWORK=<scratch dir> -DCASE=<case> \
#         -P header_reach_selftest.cmake

foreach(var SCRIPT WORK CASE)
  if(NOT ${var})
    message(FATAL_ERROR "usage: cmake -DSCRIPT=<header_reach.cmake> "
                        "-DWORK=<dir> -DCASE=<case> -P header_reach_selftest.cmake")
  endif()
endforeach()

set(root ${WORK}/${CASE})
file(REMOVE_RECURSE ${root})

# Every case shares one header that an example reaches.
file(WRITE ${root}/src/hbosim/core/used.hpp "#pragma once\n")
file(WRITE ${root}/src/hbosim/core/used.cpp "#include \"hbosim/core/used.hpp\"\n")
file(WRITE ${root}/examples/demo.cpp "#include \"hbosim/core/used.hpp\"\n")

if(CASE STREQUAL "orphan")
  file(WRITE ${root}/src/hbosim/core/orphan.hpp "#pragma once\n")
  set(expect_fail TRUE)
  set(expect_named "hbosim/core/orphan.hpp")
elseif(CASE STREQUAL "own_cpp")
  file(WRITE ${root}/src/hbosim/util/lonely.hpp "#pragma once\n")
  file(WRITE ${root}/src/hbosim/util/lonely.cpp
       "  #  include \"hbosim/util/lonely.hpp\"\n")
  set(expect_fail TRUE)
  set(expect_named "hbosim/util/lonely.hpp")
elseif(CASE STREQUAL "reached")
  file(WRITE ${root}/src/hbosim/util/helper.hpp "#pragma once\n")
  file(APPEND ${root}/src/hbosim/core/used.cpp
       "#include \"hbosim/util/helper.hpp\"\n")
  file(WRITE ${root}/src/hbosim/util/timer.hpp "#pragma once\n")
  file(WRITE ${root}/bench/bench_timer.cpp "#include \"hbosim/util/timer.hpp\"\n")
  file(WRITE ${root}/src/hbosim/util/sink.hpp "#pragma once\n")
  file(WRITE ${root}/fleetbench/driver.cpp "#include \"hbosim/util/sink.hpp\"\n")
  set(expect_fail FALSE)
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -DROOT=${root} -P ${SCRIPT}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
file(REMOVE_RECURSE ${root})

if(expect_fail)
  if(status EQUAL 0)
    message(FATAL_ERROR "guard passed a tree with an unreached header:\n${out}${err}")
  endif()
  if(NOT err MATCHES "${expect_named}")
    message(FATAL_ERROR "guard did not name ${expect_named}:\n${err}")
  endif()
  if(err MATCHES "hbosim/core/used.hpp")
    message(FATAL_ERROR "guard flagged a header an example includes:\n${err}")
  endif()
elseif(NOT status EQUAL 0)
  message(FATAL_ERROR "guard failed a tree where every header is reached:\n${out}${err}")
endif()
