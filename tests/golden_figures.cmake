# Regenerates the Figure 5 surface and the Figure 6 grid with
# `alpusim sweep` and compares each CSV byte for byte with its golden
# copy, so that any drift in the simulated latencies fails ctest.
#
#   cmake -DALPUSIM=<alpusim> -DGOLDEN_DIR=<dir> -DOUT_DIR=<dir> \
#         -P golden_figures.cmake
foreach(figure 5 6)
  set(out ${OUT_DIR}/fig${figure}.csv)
  set(golden ${GOLDEN_DIR}/fig${figure}.csv)
  execute_process(COMMAND ${ALPUSIM} sweep --figure ${figure} --jobs 1
                  OUTPUT_FILE ${out} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "alpusim sweep --figure ${figure} exited with ${rc}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${out} ${golden}
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${out} differs from ${golden}")
  endif()
endforeach()
