# The committed fuzz corpora are make_fuzz_corpus's output: regenerating
# them must reproduce every committed file byte for byte, with no file
# missing or extra. A change to an encoder, to the generator's random
# draws or to the seed set shows up here and is committed together with
# the regenerated files.
#
#   cmake -DGEN=<path to make_fuzz_corpus> -DOUT=<scratch dir>
#         -DCORPUS=<committed corpus dir> [-DHOSTILE=ON] -P <this file>

file(REMOVE_RECURSE "${OUT}")
set(args "${OUT}")
if(HOSTILE)
  list(APPEND args --hostile)
endif()
execute_process(COMMAND "${GEN}" ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "make_fuzz_corpus ${args}: exit code '${code}'")
endif()

file(GLOB_RECURSE generated RELATIVE "${OUT}" "${OUT}/*")
file(GLOB_RECURSE committed RELATIVE "${CORPUS}" "${CORPUS}/*")
list(SORT generated)
list(SORT committed)
if(NOT generated STREQUAL committed)
  message(FATAL_ERROR "file sets differ:\n  generated: ${generated}\n"
                      "  committed: ${committed}")
endif()
foreach(file ${generated})
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${OUT}/${file}" "${CORPUS}/${file}"
                  RESULT_VARIABLE differs)
  if(NOT differs STREQUAL "0")
    message(FATAL_ERROR "${file}: regenerated bytes differ from ${CORPUS}")
  endif()
endforeach()
list(LENGTH generated count)
message(STATUS "${count} files match ${CORPUS}")
