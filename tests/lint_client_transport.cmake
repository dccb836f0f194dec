# Fails when core::Client names a concrete transport or casts to one: the
# Client drives every runtime through the net::Transport contract, and
# this keeps per-mode branches from coming back.
#
#   cmake -DSOURCE_DIR=<repo root> -P tests/lint_client_transport.cmake
foreach(file src/mendel/client.h src/mendel/client.cpp)
  file(STRINGS "${SOURCE_DIR}/${file}" lines)
  set(number 0)
  foreach(line IN LISTS lines)
    math(EXPR number "${number} + 1")
    if(line MATCHES "dynamic_cast|SimTransport|ThreadTransport|SocketTransport")
      message(SEND_ERROR "${file}:${number}: names a concrete transport: ${line}")
    endif()
  endforeach()
endforeach()
