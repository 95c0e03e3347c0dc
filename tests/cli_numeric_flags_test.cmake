# Malformed numeric flags must fail cleanly: exit code 1 and an error on
# stderr that names the flag — no uncaught exception, no silent
# truncation, no wrap-around of a negative value.
#
#   cmake -DCLI=<path to xontorank_cli> -DOUT=<scratch dir> -P <this file>

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

function(expect_flag_error flag)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT code STREQUAL "1")
    message(FATAL_ERROR "'${ARGN}': exit code '${code}', expected 1")
  endif()
  string(FIND "${err}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${ARGN}': stderr does not name ${flag}: ${err}")
  endif()
endfunction()

expect_flag_error(--extend gen-ontology "${OUT}/onto.tsv" --extend abc)
expect_flag_error(--extend gen-ontology "${OUT}/onto.tsv" --extend -1)
expect_flag_error(--docs gen-corpus "${OUT}/corpus" --docs 2x)
expect_flag_error(--seed gen-corpus "${OUT}/corpus" --seed=+7)
if(EXISTS "${OUT}/corpus")
  message(FATAL_ERROR "gen-corpus wrote output despite a malformed flag")
endif()
