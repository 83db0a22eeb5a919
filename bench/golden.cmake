# Golden-output check: runs COMMAND with ARGS (one space-separated
# string) in a fresh WORKDIR and fails unless it exits 0 and its outputs
# match the committed goldens byte for byte: stdout against the file
# STDOUT (when given), and each file named in FILES (comma-separated,
# written into WORKDIR) against the same-named file under GOLDEN_DIR.
# Fresh outputs stay in WORKDIR so a mismatch can be inspected.
#   cmake -DCOMMAND=... -DARGS=... -DWORKDIR=... [-DSTDOUT=...]
#         [-DFILES=a.csv,b.csv -DGOLDEN_DIR=...] -P golden.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${COMMAND}" ${args}
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc
                OUTPUT_FILE "${WORKDIR}/stdout.txt"
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "expected exit 0, got '${rc}':\n${err}")
endif()

set(pairs)
if(STDOUT)
  list(APPEND pairs "${WORKDIR}/stdout.txt" "${STDOUT}")
endif()
if(FILES)
  string(REPLACE "," ";" names "${FILES}")
  foreach(name IN LISTS names)
    list(APPEND pairs "${WORKDIR}/${name}" "${GOLDEN_DIR}/${name}")
  endforeach()
endif()

find_program(DIFF diff)
set(report "")
while(pairs)
  list(POP_FRONT pairs fresh golden)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${fresh}" "${golden}"
                  RESULT_VARIABLE differs OUTPUT_QUIET ERROR_QUIET)
  if(NOT differs)
    continue()
  endif()
  string(APPEND report "\n${fresh} differs from ${golden}")
  if(DIFF AND EXISTS "${fresh}")
    execute_process(COMMAND "${DIFF}" -u "${golden}" "${fresh}"
                    OUTPUT_VARIABLE delta ERROR_QUIET)
    string(SUBSTRING "${delta}" 0 4000 delta)
    string(APPEND report "\n${delta}")
  endif()
endwhile()
if(report)
  message(FATAL_ERROR "golden mismatch:${report}\nUpdate a golden file "
          "only for an intentional output change, and say so in "
          "CHANGES.md.")
endif()
