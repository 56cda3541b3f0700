# Runs one program (nova_sim, nova_lint, a bench) and compares its output
# byte for byte with a committed golden file.
#
#   cmake -DPROGRAM=<path> -DARGS="<flags>" -DGOLDEN=<file>
#         -DACTUAL=<file> [-DOUTPUT_FILE=<name>] -P compare_output.cmake
#
# Without OUTPUT_FILE the golden is the program's stdout. With it, the
# program runs in a fresh directory (ACTUAL with a .run suffix) and the
# golden is the file OUTPUT_FILE it writes there.
#
# On a mismatch the actual output is written to ACTUAL so the two files
# can be diffed; the script then fails.
separate_arguments(args UNIX_COMMAND "${ARGS}")
get_filename_component(program_name "${PROGRAM}" NAME)
if(DEFINED OUTPUT_FILE)
  set(run_dir "${ACTUAL}.run")
  file(REMOVE_RECURSE "${run_dir}")
  file(MAKE_DIRECTORY "${run_dir}")
  execute_process(
    COMMAND "${PROGRAM}" ${args}
    WORKING_DIRECTORY "${run_dir}"
    OUTPUT_QUIET
    RESULT_VARIABLE status)
else()
  execute_process(
    COMMAND "${PROGRAM}" ${args}
    OUTPUT_VARIABLE actual
    RESULT_VARIABLE status)
endif()
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${program_name} ${ARGS} exited with ${status}")
endif()
if(DEFINED OUTPUT_FILE)
  if(NOT EXISTS "${run_dir}/${OUTPUT_FILE}")
    message(FATAL_ERROR "${program_name} ${ARGS} wrote no ${OUTPUT_FILE}")
  endif()
  file(READ "${run_dir}/${OUTPUT_FILE}" actual)
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR
    "${program_name} ${ARGS} differs from ${GOLDEN}\n"
    "actual output written to ${ACTUAL}")
endif()
