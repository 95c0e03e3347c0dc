# segment_inspect's directory mode describes a saved engine: exit 0 with
# the generation, the saved options and the ontology and document counts.
# A retired version-1 MANIFEST makes it exit 1 naming that layout.
#
#   cmake -DCLI=<path to xontorank_cli> -DINSPECT=<path to segment_inspect>
#         -DV1=<a version-1 MANIFEST> -DOUT=<scratch dir> -P <this file>

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

function(expect_run expected_code)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code STREQUAL "${expected_code}")
    message(FATAL_ERROR "'${ARGN}': exit code '${code}', expected "
                        "${expected_code}\n${out}${err}")
  endif()
  set(out "${out}${err}" PARENT_SCOPE)
endfunction()

expect_run(0 "${CLI}" gen-ontology "${OUT}/onto.tsv")
expect_run(0 "${CLI}" gen-corpus "${OUT}/emr" --docs 4)
expect_run(0 "${CLI}" save-engine "${OUT}/emr" "${OUT}/onto.tsv"
           "${OUT}/engine" --strategy Taxonomy)

expect_run(0 "${INSPECT}" "${OUT}/engine")
foreach(field "generation 1," "1 ontology file(s)" "4 document(s)"
              "strategy Taxonomy" "vocabulary corpus+ontology" "decay 0.5,"
              "threshold 0.1," "max_concepts_per_keyword 0"
              "bm25 k1 1.2 b 0.75" "use_elem_rank 0" "compaction_fanin 4"
              "auto_compact 1" "verify: all segments OK")
  string(FIND "${out}" "${field}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "segment_inspect output lacks '${field}':\n${out}")
  endif()
endforeach()

file(COPY_FILE "${V1}" "${OUT}/engine/MANIFEST")
expect_run(1 "${INSPECT}" "${OUT}/engine")
string(FIND "${out}" "retired manifest.tsv layout" at)
if(at EQUAL -1)
  message(FATAL_ERROR "a version-1 MANIFEST is not named retired:\n${out}")
endif()
