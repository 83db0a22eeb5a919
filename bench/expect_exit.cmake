# Runs COMMAND with ARGS (one space-separated string) and fails unless it
# exits with EXPECT_EXIT, prints nothing to stdout and its stderr matches
# EXPECT_STDERR. A crash or abort reports a non-numeric result, so it
# fails too.
#   cmake -DCOMMAND=... -DARGS=... -DEXPECT_EXIT=2 -DEXPECT_STDERR=... \
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${COMMAND}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got '${rc}':\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "expected no stdout, got:\n${out}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
