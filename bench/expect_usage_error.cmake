# Runs COMMAND_LINE (a ;-list: program then arguments) and passes only if
# it exits with status 2 and prints a line matching EXPECT to stderr: the
# contract for bad command lines of the benches and fleet_demo.
#
#   cmake -DCOMMAND_LINE="<exe>;--bogus" -DEXPECT="unknown option" \
#         -P expect_usage_error.cmake
execute_process(COMMAND ${COMMAND_LINE}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${status}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
