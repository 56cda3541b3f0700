# Runs one command-line program (nova_sim, nova_lint) and compares its
# stdout byte for byte with a committed golden file.
#
#   cmake -DPROGRAM=<path> -DARGS="<flags>" -DGOLDEN=<file>
#         -DACTUAL=<file> -P compare_output.cmake
#
# On a mismatch the actual output is written to ACTUAL so the two files
# can be diffed; the script then fails.
separate_arguments(args UNIX_COMMAND "${ARGS}")
get_filename_component(program_name "${PROGRAM}" NAME)
execute_process(
  COMMAND "${PROGRAM}" ${args}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${program_name} ${ARGS} exited with ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR
    "${program_name} ${ARGS} differs from ${GOLDEN}\n"
    "actual output written to ${ACTUAL}")
endif()
